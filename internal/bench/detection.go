package bench

import (
	"fmt"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/sim"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/workload"
)

// E1 reproduces Figure 1 / Theorem 3.1: the partition attack defeats
// any configuration without external communication, while Protocols I
// and II detect it at the first synchronization, within the k-bound.
func E1() *Table {
	t := &Table{
		ID:       "E1",
		Title:    "Partition attack (US/China scenario): detection with and without external communication",
		PaperRef: "Figure 1, Theorem 3.1, Theorems 4.1/4.2",
		Columns:  []string{"protocol", "sync", "k", "detected", "class", "max-user-ops-after-dev", "within-k"},
	}
	for _, k := range []uint64{4, 16, 64} {
		trace, info := workload.Partitionable(2, 2, int(k), int64(k))
		adv := &adversary.Config{Kind: adversary.Fork, TriggerOp: info.T1Op, GroupB: info.GroupB}
		for _, p := range []server.Protocol{server.P1, server.P2} {
			// With synchronization.
			res := sim.Run(sim.Config{Protocol: p, Users: 4, K: k, Trace: trace, Adversary: adv})
			t.AddRow(p, "every k ops", k, boolMark(res.Detected), className(res),
				res.MaxUserOpsAfterDeviation, boolMark(res.Detected && res.MaxUserOpsAfterDeviation <= int(k)))
			// Without (Theorem 3.1: no external communication).
			res = sim.Run(sim.Config{Protocol: p, Users: 4, K: 0, Trace: trace, Adversary: adv})
			t.AddRow(p, "disabled", k, boolMark(res.Detected), className(res),
				res.MaxUserOpsAfterDeviation, "n/a")
		}
	}
	t.Notes = append(t.Notes,
		"with sync disabled the busiest user performs k+1 ops after the fork and nothing fires — the impossibility of Theorem 3.1",
		"with sync every k ops, detection always lands within k ops of the deviation (Theorems 4.1/4.2)")
	return t
}

func className(res *sim.Result) string {
	if res.Detection == nil {
		return "-"
	}
	return res.Detection.Class.String()
}

// E2 reproduces Figure 2 / Section 4.1: a single-update verification
// object carries O(log n) digests.
func E2() *Table {
	t := &Table{
		ID:       "E2",
		Title:    "Merkle B+-tree verification object size vs database size",
		PaperRef: "Figure 2, Section 4.1 (O(log n) digests per update)",
		Columns:  []string{"n", "height", "vo-digests", "vo-nodes", "vo-wire-bytes"},
	}
	for _, n := range []int{100, 1_000, 10_000, 100_000} {
		tr := merkle.New(0)
		for i := 0; i < n; i++ {
			tr = tr.Put(fmt.Sprintf("key-%07d", i), []byte(fmt.Sprintf("value-%d", i)))
		}
		key := fmt.Sprintf("key-%07d", n/2)

		rec := tr.Record()
		if err := rec.Put(key, []byte("updated")); err != nil {
			panic(err)
		}
		vo := rec.VO()
		stats := vo.Stats()
		bytes, err := wire.Size(vo)
		if err != nil {
			panic(err)
		}
		t.AddRow(n, tr.Height(), stats.PrunedDigests, stats.ExpandedNodes, bytes)
	}
	t.Notes = append(t.Notes,
		"digest count and wire bytes grow with tree height (log n), not with n — the paper's efficiency claim for Merkle trees")
	return t
}

// E3 reproduces Figure 3 / Section 4.3: the untagged-XOR "first
// attempt" accepts the replay scenario; Protocol II's user-tagged
// states reject it. Both the abstract register scenario and the full
// protocol stack are exercised.
func E3() *Table {
	t := &Table{
		ID:       "E3",
		Title:    "State replay (Figure 3): untagged XOR vs user-tagged states",
		PaperRef: "Figure 3, Lemma 4.1 property P2",
		Columns:  []string{"scheme", "scenario", "check-passes", "attack-caught"},
	}

	// Abstract register level: the exact Figure 3 graph.
	untaggedPass, taggedPass := figure3Registers()
	t.AddRow("untagged XOR (strawman)", "Figure 3 graph", boolMark(untaggedPass), boolMark(!untaggedPass))
	t.AddRow("tagged states (Protocol II)", "Figure 3 graph", boolMark(taggedPass), boolMark(!taggedPass))

	// Full protocol: stale replay and counter replay under Protocol II.
	for _, kind := range []adversary.Kind{adversary.ReplayStale, adversary.CounterReplay} {
		trace := workload.Generate(workload.Config{Users: 3, Files: 8, Ops: 80, WriteRatio: 0.5, FilesPerOp: 1, Seed: 11})
		res := sim.Run(sim.Config{
			Protocol: server.P2, Users: 3, K: 8, Trace: trace,
			Adversary: &adversary.Config{Kind: kind, TriggerOp: 20, Target: 1},
		})
		t.AddRow("Protocol II (full stack)", kind.String(), boolMark(!res.Detected), boolMark(res.Detected))
	}
	t.Notes = append(t.Notes,
		"the strawman cancels even-degree states and accepts the replay — exactly the failure Figure 3 illustrates",
		"tagging states with the transition's user forces in-degree 1 (Lemma 4.1 P2) and the replay is caught")
	return t
}

// figure3Registers runs the Figure 3 graph through the register
// algebra twice: with untagged and with tagged state hashes. Returns
// whether each check passes.
func figure3Registers() (untaggedPass, taggedPass bool) {
	d := func(s string) digest.Digest { return digest.OfBytes(digest.DomainState, []byte(s)) }
	run := func(tagState bool) bool {
		state := func(name string, u sig.UserID) digest.Digest {
			if !tagState {
				return d(name)
			}
			return digest.NewHasher(digest.DomainTaggedState).Digest(d(name)).Uint64(uint64(u)).Sum()
		}
		initial := d("D0-0")
		regs := make([]core.Registers, 5)
		for i := range regs {
			regs[i].Last = initial
		}
		d1 := state("D1", 1)
		d2, d2p, d2pp := state("D2", 2), state("D2'", 3), state("D2''", 4)
		d3a, d3b, d3c := state("D3", 2), state("D3", 3), state("D3", 4)
		d4 := state("D4", 1)
		regs[1].Absorb(initial, d1, 1)
		regs[2].Absorb(d1, d2, 2)
		regs[3].Absorb(d1, d2p, 2) // replay of (D1,1)
		regs[4].Absorb(d1, d2pp, 2)
		regs[2].Absorb(d2, d3a, 3) // reconvergence into (D3,3)
		regs[3].Absorb(d2p, d3b, 3)
		regs[4].Absorb(d2pp, d3c, 3)
		regs[1].Absorb(d3a, d4, 4)
		reports := make([]core.SyncReportII, len(regs))
		for i, r := range regs {
			reports[i] = core.SyncReportII{User: sig.UserID(i), Sigma: r.Sigma, Last: r.Last}
		}
		return core.CheckSyncII(initial, reports) >= 0
	}
	return run(false), run(true)
}

// E4 reproduces Figure 4 / Theorem 4.3: Protocol III detects within
// two epochs, across population sizes and fault epochs.
func E4() *Table {
	t := &Table{
		ID:       "E4",
		Title:    "Protocol III: detection latency in epochs (fault injected in epoch f)",
		PaperRef: "Figure 4, Theorem 4.3",
		Columns:  []string{"users", "fault-epoch", "attack", "detected", "detection-epoch", "within-2-epochs"},
	}
	for _, n := range []int{2, 4, 8, 16} {
		epochLen := 4 * n
		for _, faultEpoch := range []int{1, 3} {
			trace := workload.EveryUserTwicePerEpoch(n, faultEpoch+5, epochLen, int64(n*10+faultEpoch))
			groupB := map[sig.UserID]bool{}
			for u := n / 2; u < n; u++ {
				groupB[sig.UserID(u)] = true
			}
			// Trigger a couple of ops into the fault epoch.
			trigger := uint64(2*n*faultEpoch + 2)
			res := sim.Run(sim.Config{
				Protocol: server.P3, Users: n, EpochLen: epochLen, LocalClocks: true,
				Trace:     trace,
				Adversary: &adversary.Config{Kind: adversary.Fork, TriggerOp: trigger, GroupB: groupB},
			})
			detEpoch := "-"
			within := false
			if res.Detected {
				e := (res.Rounds - 1) / epochLen
				detEpoch = fmt.Sprint(e)
				within = e <= faultEpoch+2
			}
			t.AddRow(n, faultEpoch, "fork", boolMark(res.Detected), detEpoch, boolMark(within))
		}
	}
	t.Notes = append(t.Notes,
		"every user performs two ops per epoch (the Protocol III workload assumption); the designated checker rotates per epoch",
		"detection-epoch <= fault-epoch + 2 in every configuration (Theorem 4.3)")
	return t
}

// E5 validates k-bounded deviation detection (Theorems 4.1/4.2) across
// a sweep of k and random fault points: the busiest user never
// completes more than k operations after the deviation.
func E5() *Table {
	t := &Table{
		ID:       "E5",
		Title:    "k-bounded deviation detection: delay vs sync period k",
		PaperRef: "Theorems 4.1 and 4.2 (Section 2.2.1 definition)",
		Columns:  []string{"protocol", "k", "trials", "detected", "mean-max-user-delay", "worst", "bound-holds"},
	}
	for _, p := range []server.Protocol{server.P1, server.P2} {
		for _, k := range []uint64{1, 4, 16, 64, 256} {
			const trials = 10
			detected, sum, worst := 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				seed := int64(trial*31 + int(k))
				trace := workload.Generate(workload.Config{
					Users: 4, Files: 12, Ops: int(k)*6 + 60, WriteRatio: 0.5, FilesPerOp: 1, Seed: seed,
				})
				trigger := uint64(10 + trial*3)
				res := sim.Run(sim.Config{
					Protocol: p, Users: 4, K: k, Trace: trace,
					Adversary: &adversary.Config{Kind: adversary.DropUpdate, TriggerOp: trigger},
				})
				if res.Err != nil {
					panic(res.Err)
				}
				if res.Detected {
					detected++
					sum += res.MaxUserOpsAfterDeviation
					if res.MaxUserOpsAfterDeviation > worst {
						worst = res.MaxUserOpsAfterDeviation
					}
				}
			}
			mean := 0.0
			if detected > 0 {
				mean = float64(sum) / float64(detected)
			}
			t.AddRow(p, k, trials, fmt.Sprintf("%d/%d", detected, trials), mean, worst,
				boolMark(detected == trials && worst <= int(k)))
		}
	}
	t.Notes = append(t.Notes,
		"the deviation is a dropped update at a random point; detection fires at the next sync",
		"worst-case per-user delay never exceeds k — the definition of k-bounded deviation detection")
	return t
}
