package trustedcvs_test

// One testing.B benchmark per experiment (E1–E8, see DESIGN.md §2 and
// EXPERIMENTS.md) plus component micro-benchmarks for the hot paths.
// `go test -bench=. -benchmem` regenerates every number; the ExN
// benches report experiment-specific metrics via b.ReportMetric.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"trustedcvs"
	"trustedcvs/internal/adversary"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/sim"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/workload"
)

// --- Experiment benches (one per table/figure) ----------------------

// BenchmarkE1PartitionAttack runs the Figure 1 attack end to end under
// Protocol II and reports the per-user detection delay.
func BenchmarkE1PartitionAttack(b *testing.B) {
	var delay int
	for i := 0; i < b.N; i++ {
		trace, info := workload.Partitionable(2, 2, 8, int64(i))
		res := sim.Run(sim.Config{
			Protocol: server.P2, Users: 4, K: 8, Trace: trace,
			Adversary: &adversary.Config{Kind: adversary.Fork, TriggerOp: info.T1Op, GroupB: info.GroupB},
		})
		if !res.Detected {
			b.Fatal("partition not detected")
		}
		delay = res.MaxUserOpsAfterDeviation
	}
	b.ReportMetric(float64(delay), "user-ops-to-detect")
}

// BenchmarkE2VOVerify measures single-update VO verification on a 100k
// record tree and reports the VO's digest count: materialize the VO,
// check its old root, replay the update and hash the new root. The
// fresh row materializes into new memory every time (VO.Replay); the
// arena rows into a merkle.Arena reused from one verification to the
// next, as a protocol user's verifier does: there neither the update,
// whose new leaf encoding is cut from the arena's buffer, nor the read
// of the same key allocates.
func BenchmarkE2VOVerify(b *testing.B) {
	tr := merkle.New(0)
	for i := 0; i < 100_000; i++ {
		tr = tr.Put(fmt.Sprintf("key-%07d", i), []byte("value"))
	}
	oldRoot := tr.RootDigest()
	rec := tr.Record()
	if err := rec.Put("key-0050000", []byte("updated")); err != nil {
		b.Fatal(err)
	}
	vo := rec.VO()
	b.Run("fresh", func(b *testing.B) {
		b.ReportMetric(float64(vo.Stats().PrunedDigests), "vo-digests")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vo.Replay(oldRoot, func(pt *merkle.Tree) (*merkle.Tree, error) {
				return pt.PutErr("key-0050000", []byte("updated"))
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	var arena merkle.Arena
	inArena := func(b *testing.B, op func(*merkle.Recording) error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec, root, err := arena.Begin(vo)
			if err != nil || root != oldRoot {
				b.Fatalf("old root %s, %v", root.Short(), err)
			}
			if err := op(rec); err != nil {
				b.Fatal(err)
			}
			_ = rec.Tree().RootDigest()
			arena.End()
		}
	}
	b.Run("arena", func(b *testing.B) {
		inArena(b, func(rec *merkle.Recording) error { return rec.Put("key-0050000", []byte("updated")) })
	})
	b.Run("arena-read", func(b *testing.B) {
		inArena(b, func(rec *merkle.Recording) error { _, _, err := rec.Get("key-0050000"); return err })
	})
}

// BenchmarkE3ReplayCheck measures the Protocol II sync check itself
// (the XOR-register evaluation that defeats Figure 3).
func BenchmarkE3ReplayCheck(b *testing.B) {
	const users = 32
	// Build realistic reports by running a short honest history.
	db := vdb.New(0)
	srv := proto2.NewServer(db)
	us := make([]*proto2.User, users)
	for i := range us {
		us[i] = proto2.NewUser(sig.UserID(i), db.Root(), 1<<62)
	}
	for i := 0; i < 4*users; i++ {
		u := us[i%users]
		op := &vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", i%7), Val: []byte("v")}}}
		resp, err := srv.HandleOp(u.Request(op))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := u.HandleResponse(op, resp); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range us {
			if err := u.CompleteSync(collectReports(us)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE4EpochAudit runs a full honest Protocol III run (6 epochs,
// 8 users) including the rotating epoch audits.
func BenchmarkE4EpochAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.Config{
			Protocol: server.P3, Users: 8, EpochLen: 32, LocalClocks: true,
			Trace: workload.EveryUserTwicePerEpoch(8, 6, 32, int64(i)),
		})
		if res.Err != nil || res.Detected {
			b.Fatalf("honest P3 run failed: %v %v", res.Err, res.Detection)
		}
	}
}

// BenchmarkE5DetectionSweep measures a full detection experiment (drop
// an update, sync period 16) per iteration.
func BenchmarkE5DetectionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace := workload.Generate(workload.Config{Users: 4, Files: 12, Ops: 160, WriteRatio: 0.5, FilesPerOp: 1, Seed: int64(i)})
		res := sim.Run(sim.Config{
			Protocol: server.P2, Users: 4, K: 16, Trace: trace,
			Adversary: &adversary.Config{Kind: adversary.DropUpdate, TriggerOp: 20},
		})
		if !res.Detected || res.MaxUserOpsAfterDeviation > 16 {
			b.Fatalf("k-bound failed: %+v", res.Detection)
		}
	}
}

// BenchmarkE6MessagesPerOp measures a verified Protocol II operation
// through the full live stack (driver + in-proc transport), the 2
// message exchange of Section 4.3.
func BenchmarkE6MessagesPerOp(b *testing.B) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{Users: 2, SyncEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Do(i%2, &trustedcvs.WriteOp{Puts: []trustedcvs.KV{{Key: "k", Val: []byte("v")}}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7ProtocolII and friends measure per-op cost against the
// trusted floor at a 10k-record database.
func BenchmarkE7Trusted(b *testing.B) {
	db := seededDB(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ApplyPlain(kvOp(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7ProtocolII(b *testing.B) {
	db := seededDB(b, 10_000)
	srv := proto2.NewServer(db)
	u := proto2.NewUser(0, db.Root(), 1<<62)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := kvOp(i)
		resp, err := srv.HandleOp(u.Request(op))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := u.HandleResponse(op, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8SyncRound measures a full live synchronization round
// (announce + n reports + n evaluations) with 8 users.
func BenchmarkE8SyncRound(b *testing.B) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{Users: 8, SyncEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every op triggers a sync (k=1); WaitIdle spans the round.
		if _, err := cluster.Do(0, &trustedcvs.WriteOp{Puts: []trustedcvs.KV{{Key: "k", Val: []byte("v")}}}); err != nil {
			b.Fatal(err)
		}
		if err := cluster.WaitIdle(0, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benches ----------------------------------------

func BenchmarkMerklePut(b *testing.B) {
	tr := merkle.New(0)
	for i := 0; i < 10_000; i++ {
		tr = tr.Put(fmt.Sprintf("key-%07d", i), []byte("value"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(fmt.Sprintf("key-%07d", i%10_000), []byte("new"))
	}
}

func BenchmarkMerkleGet(b *testing.B) {
	tr := merkle.New(0)
	for i := 0; i < 10_000; i++ {
		tr = tr.Put(fmt.Sprintf("key-%07d", i), []byte("value"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(fmt.Sprintf("key-%07d", i%10_000))
	}
}

func BenchmarkMerkleRootDigestAfterPut(b *testing.B) {
	tr := merkle.New(0)
	for i := 0; i < 10_000; i++ {
		tr = tr.Put(fmt.Sprintf("key-%07d", i), []byte("value"))
	}
	tr.RootDigest() // warm the digest cache; per-op cost is then O(log n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt := tr.Put("key-0005000", []byte{byte(i)})
		_ = nt.RootDigest()
	}
}

// BenchmarkMultiKeyApply is the server side of one verified WriteOp of
// 1 to 1 000 random overwrites on a 100 000-key tree — ordered section,
// proof construction and root — per key written: what a transaction
// saves by copying and hashing each node it changes once.
func BenchmarkMultiKeyApply(b *testing.B) {
	const total = 100_000
	for _, m := range []int{1, 8, 64, 1000} {
		b.Run(fmt.Sprintf("keys=%d", m), func(b *testing.B) {
			db := seededDB(b, total)
			db.Root()
			ops := multiKeyOps(64, m, total, false)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := db.Begin(ops[i%len(ops)])
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := st.Finish(); err != nil {
					b.Fatal(err)
				}
				db.Root()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			keys := float64(b.N * m)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/keys, "ns/key")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/keys, "allocs/key")
		})
	}
}

func BenchmarkStateHash(b *testing.B) {
	root := digest.OfBytes(digest.DomainState, []byte("root"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.StateHash(root, uint64(i))
	}
}

func BenchmarkWireRoundTripVO(b *testing.B) {
	db := vdb.New(0)
	for i := 0; i < 1000; i++ {
		if err := db.Preload(&vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%04d", i), Val: []byte("v")}}}); err != nil {
			b.Fatal(err)
		}
	}
	_, vo, err := db.Apply(&vdb.WriteOp{Puts: []vdb.KV{{Key: "k0500", Val: []byte("x")}}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := wire.Size(vo)
		if err != nil {
			b.Fatal(err)
		}
		_ = n
	}
}

// --- helpers ---------------------------------------------------------

func collectReports(us []*proto2.User) []core.SyncReportII {
	out := make([]core.SyncReportII, len(us))
	for i, u := range us {
		out[i] = u.SyncReport()
	}
	return out
}

func seededDB(b testing.TB, n int) *vdb.DB {
	b.Helper()
	db := vdb.New(0)
	for i := 0; i < n; i += 500 {
		op := &vdb.WriteOp{}
		for j := i; j < i+500 && j < n; j++ {
			op.Puts = append(op.Puts, vdb.KV{Key: fmt.Sprintf("key-%08d", j), Val: []byte("seed")})
		}
		if err := db.Preload(op); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func kvOp(i int) vdb.Op {
	return &vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("key-%08d", (i*7919)%10_000), Val: []byte("upd")}}}
}
