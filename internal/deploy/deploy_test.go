package deploy

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

// TestStartMatrix builds every shape of deployment the callers use —
// each protocol over in-process and TCP transports, synchronous and
// epoch-audit (journaled where resume is possible), with and without a
// witness mesh — runs a few verified writes through it and drains it:
// no client may end with a detection, and a witnessed deployment must
// have delivered commitments to its mesh.
func TestStartMatrix(t *testing.T) {
	const users, ops = 2, 12
	type mode struct {
		name    string
		epoch   uint64
		journal bool
	}
	modes := []mode{{"sync", 0, false}, {"epoch", 4, false}, {"epoch+journal", 4, true}}
	for _, p := range []server.Protocol{server.P1, server.P2, server.P3} {
		for _, tcp := range []bool{false, true} {
			for _, m := range modes {
				// Epoch audit is Protocol II's, and a journaled client
				// resumes through the TCP hub's replay.
				if (m.epoch > 0 && p != server.P2) || (m.journal && !tcp) {
					continue
				}
				for _, witnesses := range []int{0, 3} {
					name := fmt.Sprintf("%v/tcp=%v/%s/witnesses=%d", p, tcp, m.name, witnesses)
					t.Run(name, func(t *testing.T) {
						signers, _, err := sig.DeterministicSigners(users, 1)
						if err != nil {
							t.Fatal(err)
						}
						db := vdb.New(0)
						srv := map[server.Protocol]func() server.Server{
							server.P1: func() server.Server { return server.NewP1(db, proto1.Initialize(signers[0], db.Root())) },
							server.P2: func() server.Server { return server.NewP2(db) },
							server.P3: func() server.Server { return server.NewP3(db) },
						}[p]()
						cfg := Config{Server: srv, Users: users, Signers: signers, K: 4, EpochLen: m.epoch,
							Witnesses: witnesses, TCP: tcp}
						if m.journal {
							root := t.TempDir()
							cfg.AuditWAL = func(i int) (string, durable.FS) {
								return filepath.Join(root, fmt.Sprintf("user-%d", i)), nil
							}
						}
						d, err := Start(cfg)
						if err != nil {
							t.Fatal(err)
						}
						defer d.Close()
						for j := 0; j < ops; j++ {
							op := &vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", j), Val: []byte("v")}}}
							if _, err := d.Clients[j%users].Do(op); err != nil {
								t.Fatalf("op %d: %v", j, err)
							}
						}
						if m.epoch > 0 {
							for _, dc := range d.Clients {
								dc.Seal()
							}
						}
						if alarms := d.Drain(10 * time.Second); alarms != 0 {
							for i, dc := range d.Clients {
								t.Logf("client %d: %v", i, dc.Err())
							}
							t.Fatalf("%d clients ended with a detection", alarms)
						}
						if got := d.Server.DB().Ctr(); got != ops {
							t.Fatalf("server applied %d ops, want %d", got, ops)
						}
						if witnesses > 0 {
							d.Publisher.Flush()
							if delivered, _, _ := d.Publisher.FanoutStats(); delivered == 0 {
								t.Fatalf("no commitment reached the witness mesh (last error %v)", d.Publisher.LastErr())
							}
						}
					})
				}
			}
		}
	}
}
