package sim

import (
	"reflect"
	"testing"
	"time"

	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/server"
	"trustedcvs/internal/session"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/workload"
)

// TestDifferentialSimVsDriver runs one seeded trace per protocol
// through the sim and through live driver clients over in-process
// transports and the in-process hub, with operations issued one at a
// time and every sync round waited out. Both executors drive the same
// session code, so they must end in the same place: the same registers
// and verified root per user, the same number of sync rounds and the
// same number of epoch checks.
func TestDifferentialSimVsDriver(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"P1", Config{Protocol: server.P1, Users: 3, K: 4, Trace: genericTrace(3, 60, 7)}},
		{"P2", Config{Protocol: server.P2, Users: 3, K: 4, Trace: genericTrace(3, 60, 7)}},
		{"P3", Config{Protocol: server.P3, Users: 3, EpochLen: 30, Trace: workload.EveryUserTwicePerEpoch(3, 6, 30, 1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newSim(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := s.run()
			if res.Err != nil || res.Detected {
				t.Fatalf("sim: err %v, detection %v", res.Err, res.Detection)
			}
			if res.Syncs+res.EpochChecks == 0 {
				t.Fatal("the trace exercises neither sync rounds nor epoch checks")
			}
			users, rounds, checks := runLive(t, tc.cfg)
			if rounds != res.Syncs || checks != res.EpochChecks {
				t.Fatalf("live: %d sync rounds, %d epoch checks; sim: %d, %d", rounds, checks, res.Syncs, res.EpochChecks)
			}
			for i, u := range users {
				sim, live := s.users[i].VerifiedRoot(), u.VerifiedRoot()
				if live != sim || u.LCtr() != s.users[i].LCtr() {
					t.Errorf("user %d: live lctr %d root (%d, %v), sim lctr %d root (%d, %v)",
						i, u.LCtr(), live.Ctr(), live.Root(), s.users[i].LCtr(), sim.Ctr(), sim.Root())
				}
				if got, want := u.SyncReport(), s.users[i].SyncReport(); !reflect.DeepEqual(got, want) {
					t.Errorf("user %d: live report %+v, sim report %+v", i, got, want)
				}
			}
		})
	}
}

// runLive runs cfg's trace through driver clients the way the sim
// runs it, and returns each user's state machine (read once every
// client is closed), the sync rounds announced on the hub and the
// epoch checks sent to the server.
func runLive(t *testing.T, cfg Config) (users []*session.Session, rounds, checks int) {
	t.Helper()
	db := vdb.New(cfg.Order)
	signers, ring, err := sig.DeterministicSigners(cfg.Users, 1)
	if err != nil {
		t.Fatal(err)
	}
	var srv server.Server
	switch cfg.Protocol {
	case server.P1:
		srv = server.NewP1(db, proto1.Initialize(signers[0], db.Root()))
	case server.P2:
		srv = server.NewP2(db)
	case server.P3:
		srv = server.NewP3(db)
	}
	handler := driver.NewHandler(srv, cvs.NewStore())
	hub := broadcast.NewHub()
	defer hub.Close()
	observer := hub.Join()

	clients := make([]*driver.Client, cfg.Users)
	for i := range clients {
		conn := &checkCounter{Caller: transport.NewInproc(handler), checks: &checks}
		switch cfg.Protocol {
		case server.P1:
			u := proto1.NewUser(signers[i], ring, cfg.K)
			users = append(users, session.New(u, nil, nil, cfg.Users))
			clients[i] = driver.NewP1(u, conn, hub.Join(), cfg.Users)
		case server.P2:
			u := proto2.NewUser(sig.UserID(i), db.Root(), cfg.K)
			users = append(users, session.New(u, nil, nil, cfg.Users))
			clients[i] = driver.NewP2(u, conn, hub.Join(), cfg.Users)
		case server.P3:
			u := proto3.NewUser(signers[i], ring, db.Root())
			users = append(users, session.New(u, nil, nil, cfg.Users))
			clients[i] = driver.NewP3(u, conn)
		}
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	round := 0
	for i, ev := range cfg.Trace.Events {
		for round < ev.Round {
			round++
			if cfg.Protocol == server.P3 && round%cfg.EpochLen == 0 {
				srv.AdvanceEpoch()
			}
		}
		if _, err := clients[ev.User].Do(toOp(ev, i)); err != nil {
			t.Fatalf("op %d by user %d: %v", i, ev.User, err)
		}
		rounds += settle(t, observer, clients)
	}
	return users, rounds, checks
}

// settle waits out the sync round the last operation announced, if it
// announced one. The hub delivers synchronously, so the announcement
// is already in the observer's queue; once all n reports are behind
// it, every client has registered the round and WaitIdle returns when
// each has closed it.
func settle(t *testing.T, observer broadcast.Channel, clients []*driver.Client) int {
	t.Helper()
	select {
	case msg := <-observer.Recv():
		if _, ok := msg.Payload.(*core.SyncRequest); !ok {
			t.Fatalf("hub carried %T outside a round", msg.Payload)
		}
	default:
		return 0
	}
	for range clients {
		select {
		case msg := <-observer.Recv():
			if _, ok := msg.Payload.(*session.Report); !ok {
				t.Fatalf("hub carried %T inside a round", msg.Payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a sync round did not collect every report")
		}
	}
	for i, c := range clients {
		if err := c.WaitIdle(5 * time.Second); err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
	}
	return 1
}

// checkCounter counts epoch checks as the sim does: the backups
// requests one operation sends are one check.
type checkCounter struct {
	transport.Caller
	checks   *int
	checking bool
}

func (c *checkCounter) Call(req any) (any, error) {
	switch req.(type) {
	case *core.OpRequest:
		c.checking = false
	case *core.GetBackupsRequest:
		if !c.checking {
			c.checking = true
			*c.checks++
		}
	}
	return c.Caller.Call(req)
}
