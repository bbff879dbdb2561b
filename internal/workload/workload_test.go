package workload

import (
	"testing"

	"trustedcvs/internal/sig"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Users: 4, Files: 20, Ops: 100, WriteRatio: 0.3, FilesPerOp: 3, Seed: 7}
	a, b := Generate(cfg), Generate(cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Round != eb.Round || ea.User != eb.User || ea.Kind != eb.Kind || len(ea.Files) != len(eb.Files) {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
	cfg.Seed = 8
	c := Generate(cfg)
	same := true
	for i := range a.Events {
		if a.Events[i].User != c.Events[i].User || a.Events[i].Kind != c.Events[i].Kind {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateShape(t *testing.T) {
	tr := Generate(Config{Users: 3, Files: 10, Ops: 200, WriteRatio: 0.5, FilesPerOp: 2, Seed: 1})
	if len(tr.Events) != 200 {
		t.Fatalf("ops: %d", len(tr.Events))
	}
	st := tr.Stats()
	if st.Commits == 0 || st.Checkouts == 0 {
		t.Fatalf("mix: %+v", st)
	}
	prev := 0
	for i, e := range tr.Events {
		if e.Round < prev {
			t.Fatalf("rounds not monotone at %d", i)
		}
		prev = e.Round
		if int(e.User) >= 3 {
			t.Fatalf("user out of range: %v", e.User)
		}
		if len(e.Files) < 1 || len(e.Files) > 2 {
			t.Fatalf("files per op: %v", e.Files)
		}
		seen := map[string]bool{}
		for _, f := range e.Files {
			if seen[f] {
				t.Fatalf("duplicate file in op %d", i)
			}
			seen[f] = true
		}
	}
}

func TestZipfSkew(t *testing.T) {
	tr := Generate(Config{Users: 2, Files: 100, Ops: 2000, WriteRatio: 0.5, ZipfS: 1.5, Seed: 3})
	counts := map[string]int{}
	for _, e := range tr.Events {
		for _, f := range e.Files {
			counts[f]++
		}
	}
	// The most popular file should dominate under skew.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 2000/10 {
		t.Fatalf("no skew: max file count %d of %d ops", max, 2000)
	}
}

func TestOfflineSpansStretchTrace(t *testing.T) {
	base := Generate(Config{Users: 2, Files: 5, Ops: 100, Seed: 5})
	off := Generate(Config{Users: 2, Files: 5, Ops: 100, OfflineSpan: 50, OfflineProb: 0.5, Seed: 5})
	if off.Stats().Rounds <= base.Stats().Rounds {
		t.Fatalf("offline spans should stretch rounds: %d vs %d", off.Stats().Rounds, base.Stats().Rounds)
	}
}

func TestPartitionable(t *testing.T) {
	tr, info := Partitionable(2, 2, 8, 1)
	if tr.Users != 4 {
		t.Fatalf("users: %d", tr.Users)
	}
	if len(info.GroupB) != 2 || !info.GroupB[2] || !info.GroupB[3] || info.GroupB[0] {
		t.Fatalf("group B: %v", info.GroupB)
	}
	// t1 is a group-A commit of Common.h.
	t1 := tr.Events[info.T1Op-1]
	if t1.Kind != Commit || t1.Files[0] != "Common.h" || info.GroupB[t1.User] {
		t.Fatalf("t1: %+v", t1)
	}
	// t2 (at T2Op) is a group-B read of Common.h — the causal
	// dependency.
	t2 := tr.Events[info.T2Op-1]
	if t2.Kind != Checkout || t2.Files[0] != "Common.h" || !info.GroupB[t2.User] {
		t.Fatalf("t2: %+v", t2)
	}
	// After the fork, group A is silent and one group-B user performs
	// k+1 ops.
	counts := map[sig.UserID]int{}
	for _, e := range tr.Events[info.T2Op:] {
		if !info.GroupB[e.User] {
			t.Fatalf("group-A op after fork: %+v", e)
		}
		counts[e.User]++
	}
	if counts[t2.User] != info.PostForkOpsByOneUser || info.PostForkOpsByOneUser != 9 {
		t.Fatalf("post-fork ops: %v (want %d)", counts, info.PostForkOpsByOneUser)
	}
}

func TestEveryUserTwicePerEpoch(t *testing.T) {
	const users, epochs, epochLen = 3, 4, 20
	tr := EveryUserTwicePerEpoch(users, epochs, epochLen, 2)
	perEpoch := make([]map[sig.UserID]int, epochs)
	for i := range perEpoch {
		perEpoch[i] = map[sig.UserID]int{}
	}
	for _, e := range tr.Events {
		ep := (e.Round - 1) / epochLen
		if ep < 0 || ep >= epochs {
			t.Fatalf("event outside epochs: %+v", e)
		}
		perEpoch[ep][e.User]++
	}
	for ep, m := range perEpoch {
		for u := 0; u < users; u++ {
			if m[sig.UserID(u)] != 2 {
				t.Fatalf("epoch %d user %d: %d ops, want 2", ep, u, m[sig.UserID(u)])
			}
		}
	}
}

func TestEveryUserTwicePerEpochPanicsWhenTooShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	EveryUserTwicePerEpoch(5, 1, 8, 1)
}

// Stats summarizes a trace for the assertions below.
type Stats struct {
	Ops        int
	Commits    int
	Checkouts  int
	Rounds     int
	ActiveUser int // number of users with at least one op
}

// Stats computes summary statistics.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Ops = len(t.Events)
	active := map[sig.UserID]bool{}
	for _, e := range t.Events {
		if e.Kind == Commit {
			s.Commits++
		} else {
			s.Checkouts++
		}
		active[e.User] = true
		if e.Round > s.Rounds {
			s.Rounds = e.Round
		}
	}
	s.ActiveUser = len(active)
	return s
}
