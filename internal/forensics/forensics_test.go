package forensics

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/sig"
)

func st(name string) digest.Digest {
	return digest.OfBytes(digest.DomainTaggedState, []byte(name))
}

func TestJournalRingBuffer(t *testing.T) {
	j := NewJournal(1, 3)
	if j.cap != 3 || j.user != 1 {
		t.Fatal("journal metadata")
	}
	for i := 1; i <= 5; i++ {
		j.Record(uint64(i), st(fmt.Sprint(i-1)), st(fmt.Sprint(i)))
	}
	es := j.Entries()
	if len(es) != 3 {
		t.Fatalf("entries: %d", len(es))
	}
	// Oldest two evicted; remaining are ctrs 3,4,5 oldest first.
	for i, want := range []uint64{3, 4, 5} {
		if es[i].Ctr != want {
			t.Fatalf("entry %d ctr %d, want %d", i, es[i].Ctr, want)
		}
	}
}

func TestJournalDisabled(t *testing.T) {
	j := NewJournal(1, 0)
	j.Record(1, st("a"), st("b"))
	if len(j.Entries()) != 0 {
		t.Fatal("disabled journal must record nothing")
	}
}

// linearJournals builds journals for an honest linear history of n ops
// over k users.
func linearJournals(users, ops, cap int, seed int64) []*Journal {
	rng := rand.New(rand.NewSource(seed))
	js := make([]*Journal, users)
	for i := range js {
		js[i] = NewJournal(sig.UserID(i), cap)
	}
	prev := st("genesis")
	for c := 1; c <= ops; c++ {
		u := rng.Intn(users)
		next := st(fmt.Sprintf("s%d", c))
		js[u].Record(uint64(c), prev, next)
		prev = next
	}
	return js
}

func TestLocateHonestHistory(t *testing.T) {
	js := linearJournals(3, 40, 100, 1)
	rep := Locate(js)
	if rep.Located {
		t.Fatalf("honest history must not localize a fault: %s", rep)
	}
	if len(rep.MissingCtrs) != 0 {
		t.Fatalf("honest history has no gaps: %v", rep.MissingCtrs)
	}
}

func TestLocateFork(t *testing.T) {
	// Users 0,1 on branch A; users 2,3 on branch B, forked at ctr 11.
	js := make([]*Journal, 4)
	for i := range js {
		js[i] = NewJournal(sig.UserID(i), 100)
	}
	prev := st("genesis")
	for c := 1; c <= 10; c++ {
		next := st(fmt.Sprintf("s%d", c))
		js[c%4].Record(uint64(c), prev, next)
		prev = next
	}
	forkPoint := prev
	pa, pb := forkPoint, forkPoint
	for c := 11; c <= 16; c++ {
		na := st(fmt.Sprintf("a%d", c))
		js[c%2].Record(uint64(c), pa, na) // users 0,1
		pa = na
		nb := st(fmt.Sprintf("b%d", c))
		js[2+c%2].Record(uint64(c), pb, nb) // users 2,3
		pb = nb
	}
	rep := Locate(js)
	if !rep.Located {
		t.Fatalf("fork not located: %s", rep)
	}
	if rep.ForkCtr != 11 {
		t.Fatalf("fork ctr %d, want 11", rep.ForkCtr)
	}
	if len(rep.Branches) != 2 {
		t.Fatalf("branches: %+v", rep.Branches)
	}
	seen := map[string]bool{}
	for _, br := range rep.Branches {
		key := ""
		for _, u := range br.Users {
			key += fmt.Sprintf("%d,", uint32(u))
		}
		seen[key] = true
		if br.Length != 6 {
			t.Fatalf("branch length %d, want 6", br.Length)
		}
	}
	if !seen["0,1,"] || !seen["2,3,"] {
		t.Fatalf("branch membership wrong: %+v", rep.Branches)
	}
	if rep.String() == "" {
		t.Fatal("report should render")
	}
}

func TestLocateFaultBeyondHorizon(t *testing.T) {
	// Tiny journals: the fork at ctr 3 is evicted before analysis.
	js := make([]*Journal, 2)
	for i := range js {
		js[i] = NewJournal(sig.UserID(i), 2)
	}
	prev := st("genesis")
	for c := 1; c <= 2; c++ {
		next := st(fmt.Sprintf("s%d", c))
		js[0].Record(uint64(c), prev, next)
		prev = next
	}
	// Fork at 3, then both branches keep going long enough to evict
	// the fork from both journals.
	pa, pb := prev, prev
	for c := 3; c <= 8; c++ {
		na := st(fmt.Sprintf("a%d", c))
		js[0].Record(uint64(c), pa, na)
		pa = na
		nb := st(fmt.Sprintf("b%d", c))
		js[1].Record(uint64(c), pb, nb)
		pb = nb
	}
	rep := Locate(js)
	// With capacity 2 each journal holds ctrs 7,8 — still conflicting!
	// Both journals hold states for 7 and 8 on different branches, so
	// localization still succeeds, at the earliest *covered* conflict.
	if !rep.Located || rep.ForkCtr != 7 {
		t.Fatalf("expected conflict at journal horizon: %s", rep)
	}
	if rep.EarliestJournaled != 7 {
		t.Fatalf("horizon: %d", rep.EarliestJournaled)
	}
}

func TestLocateDroppedSlot(t *testing.T) {
	// A counter nobody witnessed (the server skipped a slot).
	js := []*Journal{NewJournal(0, 100)}
	js[0].Record(1, st("g"), st("s1"))
	js[0].Record(2, st("s1"), st("s2"))
	js[0].Record(5, st("s4"), st("s5")) // 3,4 missing
	rep := Locate(js)
	if rep.Located {
		t.Fatal("no conflicting slot here")
	}
	if len(rep.MissingCtrs) != 2 || rep.MissingCtrs[0] != 3 || rep.MissingCtrs[1] != 4 {
		t.Fatalf("missing: %v", rep.MissingCtrs)
	}
}

func TestLocateEmpty(t *testing.T) {
	rep := Locate(nil)
	if rep.Located {
		t.Fatal("empty journals locate nothing")
	}
	rep = Locate([]*Journal{NewJournal(0, 10)})
	if rep.Located || len(rep.MissingCtrs) != 0 {
		t.Fatal("empty journal locates nothing")
	}
}

// TestQuickLocateRandomForks: random fork points, group splits and
// journal capacities; whenever both branches are covered by journals,
// the reported fork counter is never later than the true one, and with
// full-history journals it is exact.
func TestQuickLocateRandomForks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users := 2 + rng.Intn(4)
		prefix := 1 + rng.Intn(20)
		postLen := 1 + rng.Intn(15)
		split := 1 + rng.Intn(users-1)

		js := make([]*Journal, users)
		for i := range js {
			js[i] = NewJournal(sig.UserID(i), 1000) // full history
		}
		prev := st("genesis")
		for c := 1; c <= prefix; c++ {
			next := st(fmt.Sprintf("s%d-%d", c, seed))
			js[rng.Intn(users)].Record(uint64(c), prev, next)
			prev = next
		}
		forkCtr := uint64(prefix + 1)
		pa, pb := prev, prev
		for c := prefix + 1; c <= prefix+postLen; c++ {
			na := st(fmt.Sprintf("a%d-%d", c, seed))
			js[rng.Intn(split)].Record(uint64(c), pa, na)
			pa = na
			nb := st(fmt.Sprintf("b%d-%d", c, seed))
			js[split+rng.Intn(users-split)].Record(uint64(c), pb, nb)
			pb = nb
		}
		rep := Locate(js)
		return rep.Located && rep.ForkCtr == forkCtr && len(rep.Branches) == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
