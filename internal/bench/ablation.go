package bench

import (
	"fmt"
	"runtime"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sim"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/workload"
)

// E9 ablates the Merkle B+-tree branching factor (the paper's m):
// higher order means shorter trees (fewer levels in the VO) but wider
// nodes (more keys shipped per expanded node). The sweet spot for VO
// bytes sits at moderate orders — the reason DefaultOrder is 8.
func E9() *Table {
	t := &Table{
		ID:       "E9",
		Title:    "Ablation: Merkle branching factor m (10k records, single-key update)",
		PaperRef: "Section 4.1 (\"up to m keys and m+1 pointers\") — design choice",
		Columns:  []string{"order", "height", "vo-digests", "vo-wire-bytes"},
	}
	const n = 10_000
	for _, order := range []int{3, 4, 8, 16, 32, 64} {
		tr := merkle.New(order)
		for i := 0; i < n; i++ {
			tr = tr.Put(fmt.Sprintf("key-%07d", i), []byte("value"))
		}
		key := fmt.Sprintf("key-%07d", n/2)

		rec := tr.Record()
		if err := rec.Put(key, []byte("updated")); err != nil {
			panic(err)
		}
		vo := rec.VO()
		bytes, err := wire.Size(vo)
		if err != nil {
			panic(err)
		}
		t.AddRow(order, tr.Height(), vo.Stats().PrunedDigests, bytes)
	}
	t.Notes = append(t.Notes,
		"small orders make tall trees (many pruned sibling digests); large orders ship wide nodes — VO bytes are minimized at moderate m")
	return t
}

// E10 ablates the synchronization period k — the paper's central
// knob: detection delay is bounded by k (Theorems 4.1/4.2) while the
// amortized broadcast traffic shrinks as 1/k. The table makes the
// tradeoff concrete.
func E10() *Table {
	t := &Table{
		ID:       "E10",
		Title:    "Ablation: sync period k — detection delay vs broadcast traffic (Protocol II, 4 users)",
		PaperRef: "Section 2.2.1 (k-bounded detection) vs Section 4 sync cost",
		Columns:  []string{"k", "bcast-msgs/op", "syncs", "mean-user-delay", "worst-user-delay", "bound-holds"},
	}
	for _, k := range []uint64{1, 2, 4, 8, 16, 32, 64} {
		const trials = 8
		var bcast, totalOps, syncs, sumDelay, worst int
		detected := 0
		for trial := 0; trial < trials; trial++ {
			trace := workload.Generate(workload.Config{
				Users: 4, Files: 10, Ops: int(k)*8 + 80, WriteRatio: 0.5, FilesPerOp: 1, Seed: int64(trial + int(k)*100),
			})
			res := sim.Run(sim.Config{
				Protocol: server.P2, Users: 4, K: k, Trace: trace,
				Adversary: &adversary.Config{Kind: adversary.DropUpdate, TriggerOp: uint64(15 + trial*2)},
			})
			if res.Err != nil {
				panic(res.Err)
			}
			bcast += res.Messages.Broadcast
			totalOps += res.TotalOps
			syncs += res.Syncs
			if res.Detected {
				detected++
				sumDelay += res.MaxUserOpsAfterDeviation
				if res.MaxUserOpsAfterDeviation > worst {
					worst = res.MaxUserOpsAfterDeviation
				}
			}
		}
		mean := 0.0
		if detected > 0 {
			mean = float64(sumDelay) / float64(detected)
		}
		t.AddRow(k,
			float64(bcast)/float64(totalOps),
			syncs,
			mean,
			worst,
			boolMark(detected == trials && worst <= int(k)))
	}
	t.Notes = append(t.Notes,
		"broadcast traffic per operation falls roughly as (n+1)/k while worst-case detection delay rises to k — the user picks the point on this curve",
		"k=1 gives immediate (next-op) detection at one full sync round per operation")
	return t
}

// E12 measures fault localization (the paper's future-work item 1,
// implemented in internal/forensics): the probability of pinpointing
// the forged operation slot, and the localization error, as a function
// of the users' journal capacity.
func E12() *Table {
	t := &Table{
		ID:       "E12",
		Title:    "Fault localization: accuracy vs journal capacity (Protocol II, 4 users, fork attack)",
		PaperRef: "Section 6 future work (1): \"detect exactly when the fault occurred\"",
		Columns:  []string{"journal-cap", "trials", "detected", "localized", "exact-fork-ctr", "state-bytes/user"},
	}
	for _, cap := range []int{0, 8, 32, 128, 512} {
		const trials = 10
		detected, located, exact := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			trace, info := workload.Partitionable(2, 2, 16, int64(trial))
			res := sim.Run(sim.Config{
				Protocol: server.P2, Users: 4, K: 6, JournalCap: cap,
				Trace: trace,
				Adversary: &adversary.Config{
					Kind: adversary.Fork, TriggerOp: info.T1Op, GroupB: info.GroupB,
				},
			})
			if res.Err != nil {
				panic(res.Err)
			}
			if !res.Detected {
				continue
			}
			detected++
			if res.Forensics != nil && res.Forensics.Located {
				located++
				if res.Forensics.ForkCtr == info.T1Op {
					exact++
				}
			}
		}
		// Journal memory: cap entries × one Transition
		// (user id 4 + counter 8 + two 32-byte digests).
		const entryBytes = 4 + 8 + 32 + 32
		t.AddRow(cap, trials,
			fmt.Sprintf("%d/%d", detected, trials),
			fmt.Sprintf("%d/%d", located, trials),
			fmt.Sprintf("%d/%d", exact, trials),
			cap*entryBytes)
	}
	t.Notes = append(t.Notes,
		"journal capacity trades a bounded relaxation of desideratum 5 (constant state) for post-detection rollback precision",
		"cap 0 detects but cannot localize; any capacity covering the fork window localizes it exactly")
	return t
}

// E11 ablates commit batch size: a CommitOp touching f files shares
// one VO, so the per-file proof cost falls as the tree paths overlap
// and the fixed per-message cost amortizes.
func E11() *Table {
	t := &Table{
		ID:       "E11",
		Title:    "Ablation: files per commit — VO amortization (10k-record repository)",
		PaperRef: "Section 4.1 generalized to operation batches (DESIGN.md §3)",
		Columns:  []string{"files/commit", "vo-wire-bytes", "bytes/file", "vo-digests", "allocs/file"},
	}
	// Seed a repository with 5k files at head revision 1.
	db := vdb.New(0)
	for i := 0; i < 5000; i += 250 {
		op := &cvs.CommitOp{Author: "seed", TimeUnix: 1}
		for j := i; j < i+250; j++ {
			path := fmt.Sprintf("src/file%05d.c", j)
			op.Files = append(op.Files, cvs.CommitFile{Path: path, Hash: rcs.HashContent([]byte(path))})
		}
		if err := db.Preload(op); err != nil {
			panic(err)
		}
	}
	for _, batch := range []int{1, 2, 4, 8, 16, 32, 64} {
		op := &cvs.CommitOp{Author: "bench", Log: "batch", TimeUnix: 2}
		for j := 0; j < batch; j++ {
			path := fmt.Sprintf("src/file%05d.c", j*71%5000)
			op.Files = append(op.Files, cvs.CommitFile{Path: path, Hash: rcs.HashContent([]byte("new"))})
		}
		fork := db.Fork()
		oldRoot := fork.Root()
		ans, vo, err := fork.Apply(op)
		if err != nil {
			panic(err)
		}
		bytes, err := wire.Size(vo)
		if err != nil {
			panic(err)
		}
		const iters = 50
		// The server's side of the same commit (ordered section, proof,
		// root) runs on a fork of its own each time.
		forks := make([]*vdb.DB, iters)
		for i := range forks {
			forks[i] = db.Fork()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			if _, err := vdb.Verify(op, ans, vo, oldRoot); err != nil {
				panic(err)
			}
		}
		for _, f := range forks {
			if _, _, err := f.Apply(op); err != nil {
				panic(err)
			}
			f.Root()
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(iters*batch)
		t.AddRow(batch, bytes, bytes/batch, vo.Stats().PrunedDigests, allocs)
	}
	t.Notes = append(t.Notes,
		"bytes per file fall with batch size as root-adjacent tree paths are shared across the batched keys",
		"a multi-file commit is ONE operation of the model: one ctr slot, one VO, atomic (DESIGN.md §3)",
		"allocs/file counts the verifier and the server's Apply + Root of the commit together: a transaction copies each tree node once, so both fall with the batch")
	return t
}
