package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

func d(s string) digest.Digest { return digest.OfBytes(digest.DomainState, []byte(s)) }

func TestStateHashBindsAllInputs(t *testing.T) {
	r1, r2 := d("root1"), d("root2")
	base := StateHash(r1, 5)
	if base == StateHash(r2, 5) {
		t.Error("state hash must bind the root")
	}
	if base == StateHash(r1, 6) {
		t.Error("state hash must bind the counter")
	}
	if base == TaggedStateHash(r1, 5, 0) {
		t.Error("tagged and untagged states must differ")
	}
	tagged := TaggedStateHash(r1, 5, 1)
	if tagged == TaggedStateHash(r1, 5, 2) {
		t.Error("tagged state must bind the user")
	}
}

func TestGenesisState(t *testing.T) {
	g := GenesisState(digest.Empty())
	if g != TaggedStateHash(digest.Empty(), 0, sig.GenesisID) {
		t.Error("genesis must be the tagged (D0, 0, genesis) state")
	}
	if g == GenesisState(d("other")) {
		t.Error("genesis must bind the initial root")
	}
}

// TestAbsorbFoldsOnlyVerified pins the trust boundary of the registers:
// a chain of real verified writes by three users folds as its tagged
// transitions (σ accumulates each user's old ⊕ new, written out here
// without Registers), and the zero Verified, which any code can write,
// folds nothing, before the first operation or in the middle of the
// chain.
func TestAbsorbFoldsOnlyVerified(t *testing.T) {
	const users, ops = 3, 7
	db := vdb.New(0)
	var vf vdb.Verifier
	initial := GenesisState(digest.Empty())
	regs := make([]Registers, users)
	sigma := make([]digest.Digest, users)
	for i := range regs {
		regs[i].Last = initial
	}
	state, last := initial, sig.GenesisID
	for c := uint64(0); c < ops; c++ {
		u := sig.UserID(c % users)
		before := regs[u]
		if oldState, newState := regs[u].Absorb(vdb.Verified{}, c, last, u); regs[u] != before || oldState != digest.Zero || newState != digest.Zero {
			t.Fatalf("op %d: the zero Verified folded: registers %+v, states %s %s", c, regs[u], oldState.Short(), newState.Short())
		}
		op := &vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", c), Val: []byte("v")}}}
		ans, vo, err := db.Apply(op)
		if err != nil {
			t.Fatal(err)
		}
		v, err := vf.VerifyDerive(op, ans, vo)
		if err != nil {
			t.Fatal(err)
		}
		next := TaggedStateHash(db.Root(), c+1, u)
		oldState, newState := regs[u].Absorb(v, c, last, u)
		if oldState != state || newState != next {
			t.Fatalf("op %d: Absorb returned states %s → %s, want %s → %s", c, oldState.Short(), newState.Short(), state.Short(), next.Short())
		}
		sigma[u] = sigma[u].Xor(state).Xor(next)
		want := Registers{Sigma: sigma[u], Last: next, LastCtr: c + 1, GCtr: c + 1, Ops: before.Ops + 1}
		if regs[u] != want {
			t.Fatalf("op %d: user %d registers %+v, want %+v", c, u, regs[u], want)
		}
		state, last = next, u
	}
	if got := CheckSyncII(initial, reportsII(regs)); got != int(last) {
		t.Fatalf("the verified chain closes at report %d, want the last writer %d", got, last)
	}
}

// linearHistory simulates n ops by randomly chosen users over an
// honest linear state chain, returning per-user registers.
func linearHistory(rng *rand.Rand, users int, ops int, initial digest.Digest) []Registers {
	regs := make([]Registers, users)
	for i := range regs {
		regs[i].Last = initial
	}
	state := initial
	for c := uint64(1); c <= uint64(ops); c++ {
		u := rng.Intn(users)
		next := TaggedStateHash(d(fmt.Sprintf("root-%d", c)), c, sig.UserID(u))
		regs[u].fold(state, next, c)
		state = next
	}
	return regs
}

func reportsII(regs []Registers) []SyncReportII {
	out := make([]SyncReportII, len(regs))
	for i, r := range regs {
		out[i] = SyncReportII{User: sig.UserID(i), Sigma: r.Sigma, Last: r.Last}
	}
	return out
}

func TestCheckSyncIIHonest(t *testing.T) {
	f := func(seed int64, nu, nop uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		users := int(nu)%8 + 1
		ops := int(nop) % 100
		initial := GenesisState(digest.Empty())
		regs := linearHistory(rng, users, ops, initial)
		return CheckSyncII(initial, reportsII(regs)) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSyncIIDetectsFork(t *testing.T) {
	// Partition attack at the register level: two groups continue from
	// a common prefix on diverged chains. The combined registers must
	// fail the check (the state graph is a tree with two leaves, not a
	// path).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		initial := GenesisState(digest.Empty())
		// Group A = users 0,1; group B = users 2,3.
		regs := make([]Registers, 4)
		for i := range regs {
			regs[i].Last = initial
		}
		state := initial
		c := uint64(0)
		// Common prefix touched by everyone.
		for i := 0; i < 3+rng.Intn(5); i++ {
			c++
			u := rng.Intn(4)
			next := TaggedStateHash(d(fmt.Sprintf("pre-%d", c)), c, sig.UserID(u))
			regs[u].fold(state, next, c)
			state = next
		}
		forkPoint := state
		forkCtr := c
		// Branch A.
		sa, ca := forkPoint, forkCtr
		for i := 0; i < 1+rng.Intn(5); i++ {
			ca++
			u := rng.Intn(2)
			next := TaggedStateHash(d(fmt.Sprintf("a-%d", ca)), ca, sig.UserID(u))
			regs[u].fold(sa, next, ca)
			sa = next
		}
		// Branch B (the server replays the fork point to group B).
		sb, cb := forkPoint, forkCtr
		for i := 0; i < 1+rng.Intn(5); i++ {
			cb++
			u := 2 + rng.Intn(2)
			next := TaggedStateHash(d(fmt.Sprintf("b-%d", cb)), cb, sig.UserID(u))
			regs[u].fold(sb, next, cb)
			sb = next
		}
		return CheckSyncII(initial, reportsII(regs)) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSyncIIFigure3Replay(t *testing.T) {
	// Figure 3's attack: the server replays the state (D1, 1) to three
	// users, producing divergent level-2 states (D2, D2′, D2′′), then
	// reconverges all three into the same (D3, 3). Every intermediate
	// node of the untagged state graph then has even total degree, so
	// the naive XOR check ("a first attempt", Section 4.3) cancels
	// everything but (D0,0) and (D4,4) and wrongly accepts. Tagging
	// each state with the user that performed the transition splits
	// (D3,3) into three distinct nodes and the check fails.
	initial := d("D0-0") // stands for h(M(D0)||0)
	untagged := func(name string, _ sig.UserID) digest.Digest { return d(name) }
	tagged := func(name string, u sig.UserID) digest.Digest {
		return digest.NewHasher(digest.DomainTaggedState).Digest(d(name)).Uint64(uint64(u)).Sum()
	}

	run := func(state func(string, sig.UserID) digest.Digest) int {
		regs := make([]Registers, 5)
		for i := range regs {
			regs[i].Last = initial
		}
		absorb := func(u sig.UserID, from, to digest.Digest, c uint64) {
			regs[u].fold(from, to, c)
		}
		d1 := state("D1", 1)
		d2 := state("D2", 2)
		d2p := state("D2'", 3)
		d2pp := state("D2''", 4)
		d3u2 := state("D3", 2)
		d3u3 := state("D3", 3)
		d3u4 := state("D3", 4)
		d4 := state("D4", 1)

		absorb(1, initial, d1, 1) // (D0,0) -1-> (D1,1)
		absorb(2, d1, d2, 2)      // (D1,1) -2-> (D2,2)
		absorb(3, d1, d2p, 2)     // replay of (D1,1) to user 3
		absorb(4, d1, d2pp, 2)    // replay of (D1,1) to user 4
		absorb(2, d2, d3u2, 3)    // all three branches reconverge ...
		absorb(3, d2p, d3u3, 3)   // ... into (D3,3)
		absorb(4, d2pp, d3u4, 3)
		absorb(1, d3u2, d4, 4) // (D3,3) -1-> (D4,4); server claims j=2 for the old state
		return CheckSyncII(initial, reportsII(regs))
	}

	if run(untagged) < 0 {
		t.Error("untagged XOR should (wrongly) accept the Figure 3 replay — that is the paper's point")
	}
	if run(tagged) >= 0 {
		t.Error("tagged states must reject the Figure 3 replay")
	}
}

func TestCheckSyncIIZeroOps(t *testing.T) {
	initial := GenesisState(digest.Empty())
	regs := make([]Registers, 3)
	for i := range regs {
		regs[i].Last = initial
	}
	if CheckSyncII(initial, reportsII(regs)) < 0 {
		t.Error("zero-op history must pass the sync check")
	}
}

func TestCheckSyncIHonestAndForked(t *testing.T) {
	// Honest: gctr of the last user equals the total op count.
	honest := []SyncReportI{
		{User: 0, LCtr: 3, GCtr: 5},
		{User: 1, LCtr: 4, GCtr: 7},
	}
	if CheckSyncI(honest) != 1 {
		t.Error("honest Protocol I sync must pass via the last user")
	}
	// Forked: 7 total ops but both chains are shorter than 7.
	forked := []SyncReportI{
		{User: 0, LCtr: 4, GCtr: 4}, // chain A has 4 ops
		{User: 1, LCtr: 3, GCtr: 3}, // chain B has 3 ops
	}
	if CheckSyncI(forked) >= 0 {
		t.Error("forked Protocol I sync must fail")
	}
}

func TestAbsorbTelescopes(t *testing.T) {
	// After any linear history, each user's σ XORed together equals
	// initial ⊕ final — the algebra behind Theorem 4.2.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		initial := GenesisState(digest.Empty())
		regs := linearHistory(rng, 5, 50, initial)
		var acc digest.Digest
		var last digest.Digest
		var lastCtr uint64
		for _, r := range regs {
			acc = acc.Xor(r.Sigma)
			if r.LastCtr >= lastCtr && r.Ops > 0 {
				lastCtr, last = r.LastCtr, r.Last
			}
		}
		return initial.Xor(acc) == last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochBackupSignature(t *testing.T) {
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := &EpochBackup{User: 0, Epoch: 3, Sigma: d("s"), Last: d("l"), LastCtr: 9}
	b.Sig = signers[0].Sign(EpochSummaryHash(b.User, b.Epoch, b.Sigma, b.Last, b.LastCtr))
	if err := b.Verify(ring); err != nil {
		t.Fatalf("valid backup rejected: %v", err)
	}
	// Any field change must invalidate the signature.
	mutations := []func(*EpochBackup){
		func(b *EpochBackup) { b.Epoch++ },
		func(b *EpochBackup) { b.Sigma = d("x") },
		func(b *EpochBackup) { b.Last = d("x") },
		func(b *EpochBackup) { b.LastCtr++ },
		func(b *EpochBackup) { b.User = 1 },
	}
	for i, m := range mutations {
		c := *b
		m(&c)
		if err := c.Verify(ring); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestDetectionError(t *testing.T) {
	cause := fmt.Errorf("root mismatch")
	err := Detect(BadVO, 3, 17, cause)
	if de, ok := AsDetection(err); !ok || de.Class != BadVO || de.User != 3 || de.LCtr != 17 {
		t.Fatalf("AsDetection: %+v %v", de, ok)
	}
	wrapped := fmt.Errorf("driver: %w", err)
	if de, ok := AsDetection(wrapped); !ok || de.Class != BadVO {
		t.Fatal("AsDetection must see through wrapping")
	}
	if _, ok := AsDetection(fmt.Errorf("plain")); ok {
		t.Fatal("plain errors are not detections")
	}
	for c := BadVO; c <= ProtocolViolation; c++ {
		if c.String() == "" || c.String()[0] == 'd' && c != DetectionClass(99) {
			continue
		}
	}
	if DetectionClass(99).String() != "detection-class(99)" {
		t.Fatal("unknown class string")
	}
}
