// Package sim is the deterministic driver for the formal experiments:
// it executes a workload trace round by round against an honest or
// adversarial protocol server, counts every message, and reports when
// (and by which check) deviation was detected. Each user is the
// session.Session the live driver runs; the sim supplies its server (an
// in-process call that counts each message) and its broadcast channel
// (a FIFO queue delivered to every user, in user order, in the round).
//
// It follows the system model of Section 2: a global clock in rounds,
// one query action per round at most, messages delivered within the
// round, b*-bounded transactions (the server answers in the same
// round), and p-partial synchrony (users' local epoch estimates are
// derived from the global round, as an honest clock within drift
// bounds would be).
package sim

import (
	"fmt"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/session"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/workload"
)

// Config parameterizes one simulated run.
type Config struct {
	Protocol server.Protocol
	Users    int
	// K is the sync period for Protocols I/II (0 = syncs disabled —
	// used to demonstrate Theorem 3.1's impossibility).
	K uint64
	// EpochLen is rounds per epoch for Protocol III.
	EpochLen int
	// LocalClocks enables Protocol III users' local epoch estimates.
	LocalClocks bool
	Trace       *workload.Trace
	// Adversary configures the malicious server (nil = honest).
	Adversary *adversary.Config
	// Order is the Merkle branching factor (0 = default).
	Order int
	// Oracle enables the ground-truth deviation oracle: every
	// response is recorded and replayed against a trusted database
	// after the run (Definition 2.1, independent of the protocols).
	Oracle bool
	// JournalCap enables per-user transition journals of this capacity
	// (Protocols I/II); on detection the journals are pooled and the
	// fault localized (internal/forensics).
	JournalCap int
	// MeasureBytes additionally accounts wire bytes (the frame sizes
	// of every request and response, including the VOs). Costs one
	// encode per message.
	MeasureBytes bool
}

// Bytes counts wire traffic by direction (MeasureBytes only).
type Bytes struct {
	UserToServer int
	ServerToUser int
}

// Messages counts protocol traffic by channel.
type Messages struct {
	UserToServer int
	ServerToUser int
	Broadcast    int
}

// Result reports one run's outcome.
type Result struct {
	TotalOps    int
	Rounds      int
	Syncs       int
	EpochChecks int
	Messages    Messages
	Bytes       Bytes

	Detected  bool
	Detection *core.DetectionError
	// DeviatedAtOp is the 1-based global op index of the server's
	// first deviation (0 = never deviated).
	DeviatedAtOp uint64
	// DetectedAtOp is the global op count completed when detection
	// fired.
	DetectedAtOp uint64
	// OpsAfterDeviation is the number of operations *completed* after
	// the deviating operation began — the global detection delay. 0
	// means the deviation was caught within the deviating operation
	// itself.
	OpsAfterDeviation int
	// MaxUserOpsAfterDeviation is the busiest single user's completed
	// ops after the deviation — the quantity Theorems 4.1/4.2 bound
	// by k.
	MaxUserOpsAfterDeviation int

	// GroundTruthDeviationOp is the oracle's verdict (Config.Oracle):
	// the 1-based index of the first response inconsistent with a
	// trusted serial execution; 0 = none observed.
	GroundTruthDeviationOp uint64
	// Forensics is the pooled-journal fault localization report,
	// produced on detection when Config.JournalCap > 0.
	Forensics *forensics.Report

	// Err is a non-detection failure (harness or workload bug).
	Err error
}

// Run executes the configured simulation.
func Run(cfg Config) *Result {
	s, err := newSim(cfg)
	if err != nil {
		return &Result{Err: err}
	}
	return s.run()
}

type sim struct {
	cfg   Config
	res   *Result
	srv   server.Server
	adv   *adversary.Server // nil when honest
	round int

	perUserAfterDev map[sig.UserID]int
	exchanges       []exchange

	users    []*session.Session // indexed by user id
	queue    []any              // broadcasts published and not yet delivered
	checking bool               // the current operation has sent a backups request
}

func newSim(cfg Config) (*sim, error) {
	if cfg.Trace == nil || cfg.Users <= 0 {
		return nil, fmt.Errorf("sim: need a trace and users")
	}
	if cfg.Trace.Users > cfg.Users {
		return nil, fmt.Errorf("sim: trace has %d users, config only %d", cfg.Trace.Users, cfg.Users)
	}
	for _, ev := range cfg.Trace.Events {
		if int(ev.User) >= cfg.Users {
			return nil, fmt.Errorf("sim: event user %v out of range", ev.User)
		}
	}
	if cfg.Protocol == server.P3 && cfg.EpochLen <= 0 {
		return nil, fmt.Errorf("sim: Protocol III needs EpochLen")
	}
	db := vdb.New(cfg.Order)
	signers, ring, err := sig.DeterministicSigners(cfg.Users, 1)
	if err != nil {
		return nil, err
	}

	s := &sim{cfg: cfg, res: &Result{}, perUserAfterDev: make(map[sig.UserID]int)}

	var honest server.Server
	switch cfg.Protocol {
	case server.P1:
		honest = server.NewP1(db, proto1.Initialize(signers[0], db.Root()))
	case server.P2:
		honest = server.NewP2(db)
	case server.P3:
		honest = server.NewP3(db)
	default:
		return nil, fmt.Errorf("sim: unknown protocol %v", cfg.Protocol)
	}
	k := cfg.K
	if k == 0 {
		k = 1 << 62 // syncs disabled
	}
	for i, sg := range signers {
		var u interface{ EnableJournal(int) }
		switch cfg.Protocol {
		case server.P1:
			u = proto1.NewUser(sg, ring, k)
		case server.P2:
			u = proto2.NewUser(sig.UserID(i), db.Root(), k)
		case server.P3:
			u3 := proto3.NewUser(sg, ring, db.Root())
			if cfg.LocalClocks {
				u3.LocalEpoch = func() uint64 { return uint64(s.round / cfg.EpochLen) }
			}
			u = u3
		}
		if cfg.JournalCap > 0 && cfg.Protocol != server.P3 {
			u.EnableJournal(cfg.JournalCap)
		}
		s.users = append(s.users, session.New(u, s, s, cfg.Users))
	}

	if cfg.Adversary != nil {
		s.adv = adversary.Wrap(honest, *cfg.Adversary)
		s.srv = s.adv
	} else {
		s.srv = honest
	}
	return s, nil
}

// toOp converts a trace event into a CVS operation. Content is a
// deterministic function of the event, so runs are reproducible.
func toOp(ev workload.Event, opIndex int) vdb.Op {
	if ev.Kind == workload.Commit {
		op := &cvs.CommitOp{
			Author:   fmt.Sprintf("user%d", ev.User),
			Log:      fmt.Sprintf("op %d", opIndex),
			TimeUnix: int64(ev.Round),
		}
		for _, f := range ev.Files {
			content := fmt.Sprintf("content of %s by user %d at round %d\n", f, ev.User, ev.Round)
			op.Files = append(op.Files, cvs.CommitFile{Path: f, Hash: rcs.HashContent([]byte(content))})
		}
		return op
	}
	return &cvs.CheckoutOp{Paths: ev.Files}
}

func (s *sim) run() *Result {
	for i, ev := range s.cfg.Trace.Events {
		// Advance the global clock to the event's round, crossing
		// epoch boundaries on the way.
		for s.round < ev.Round {
			s.round++
			if s.cfg.Protocol == server.P3 && s.round%s.cfg.EpochLen == 0 {
				s.srv.AdvanceEpoch()
			}
		}
		if _, err := s.users[ev.User].Do(toOp(ev, i)); err != nil {
			s.finish(err)
			return s.res
		}
		s.res.TotalOps++
		if s.adv != nil && s.adv.DeviatedAtOp() != 0 {
			s.perUserAfterDev[ev.User]++
		}

		// Protocols I/II: the operation that completes a user's k
		// announced a sync round; run it to the end.
		if err := s.deliver(); err != nil {
			s.finish(err)
			return s.res
		}
	}
	s.finish(nil)
	return s.res
}

// recordExchange captures a response for the ground-truth oracle.
func (s *sim) recordExchange(u sig.UserID, op vdb.Op, ans []byte) {
	if s.cfg.Oracle {
		s.exchanges = append(s.exchanges, exchange{user: u, op: op, ans: ans})
	}
}

// countMsg accounts one message (and, when enabled, its wire bytes).
func (s *sim) countMsg(toServer bool, msg any) {
	if toServer {
		s.res.Messages.UserToServer++
	} else {
		s.res.Messages.ServerToUser++
	}
	if !s.cfg.MeasureBytes {
		return
	}
	n, err := wire.Size(msg)
	if err != nil {
		return
	}
	if toServer {
		s.res.Bytes.UserToServer += n
	} else {
		s.res.Bytes.ServerToUser += n
	}
}

// Call is every user's server, within the round, counting each
// message; Protocol I's ack is answered with an uncounted OKResponse,
// as the paper counts none.
func (s *sim) Call(req any) (any, error) {
	s.countMsg(true, req)
	var resp any
	var err error
	switch r := req.(type) {
	case *core.OpRequest:
		s.checking = false
		resp, err = s.srv.HandleOp(r)
		switch raw := resp.(type) {
		case *core.OpResponseI:
			s.recordExchange(r.User, r.Op, raw.Answer)
		case *core.OpResponseII:
			s.recordExchange(r.User, r.Op, raw.Answer)
		}
	case *core.AckRequest:
		return &core.OKResponse{}, s.srv.HandleAck(r)
	case *core.GetBackupsRequest:
		// One operation's backups requests are one epoch check.
		if !s.checking {
			s.checking = true
			s.res.EpochChecks++
		}
		resp, err = s.srv.HandleGetBackups(r)
	default:
		return nil, fmt.Errorf("sim: unexpected request %T", req)
	}
	if err != nil {
		return nil, err
	}
	s.countMsg(false, resp)
	return resp, nil
}

// Publish is every user's broadcast channel: it counts msg and queues
// it for deliver.
func (s *sim) Publish(msg any) {
	s.res.Messages.Broadcast++
	if _, ok := msg.(*core.SyncRequest); ok {
		s.res.Syncs++
	}
	s.queue = append(s.queue, msg)
}

// deliver hands each queued broadcast, in publication order, to every
// user in user order — the reports they publish in turn join the
// queue — and returns the first failed sync check.
func (s *sim) deliver() error {
	for len(s.queue) > 0 {
		msg := s.queue[0]
		s.queue = s.queue[1:]
		for _, u := range s.users {
			switch m := msg.(type) {
			case *core.SyncRequest:
				u.OnAnnounce(m)
			case *session.Report:
				if _, err := u.OnReport(m); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// finish finalizes the result, classifying err.
func (s *sim) finish(err error) {
	s.res.Rounds = s.round
	if s.adv != nil {
		s.res.DeviatedAtOp = s.adv.DeviatedAtOp()
	}
	for _, n := range s.perUserAfterDev {
		if n > s.res.MaxUserOpsAfterDeviation {
			s.res.MaxUserOpsAfterDeviation = n
		}
	}
	if s.cfg.Oracle {
		s.res.GroundTruthDeviationOp = oracle(s.cfg.Order, s.exchanges)
	}
	if err == nil {
		return
	}
	if de, ok := core.AsDetection(err); ok {
		s.res.Detected = true
		s.res.Detection = de
		s.res.DetectedAtOp = uint64(s.res.TotalOps)
		if s.res.DeviatedAtOp > 0 {
			s.res.OpsAfterDeviation = int(s.res.DetectedAtOp - (s.res.DeviatedAtOp - 1))
		}
		if s.cfg.JournalCap > 0 {
			var js []*forensics.Journal
			for _, u := range s.users {
				if j := u.Journal(); j != nil {
					js = append(js, j)
				}
			}
			if len(js) > 0 {
				s.res.Forensics = forensics.Locate(js)
			}
		}
		return
	}
	s.res.Err = err
}
