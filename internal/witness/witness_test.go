package witness

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

func testIdentity(t *testing.T, name string, seed int64) *Identity {
	t.Helper()
	id, err := NewIdentityFrom(name, mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func root(b byte) digest.Digest {
	var d digest.Digest
	d[0] = b
	return d
}

func TestLogAcceptsHonestStream(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	l := NewLog("primary", nil, 4)
	prev := digest.Zero
	for i := uint64(1); i <= 10; i++ {
		c := id.Commit(i, i*8, root(byte(i)), prev)
		ev, err := l.Append(c, id.Public())
		if err != nil {
			t.Fatalf("seq %d: %v", i, err)
		}
		if ev != nil {
			t.Fatalf("seq %d: false evidence: %s", i, ev)
		}
		prev = root(byte(i))
	}
	if got := l.Latest(); got == nil || got.Seq != 10 {
		t.Fatalf("Latest = %+v, want seq 10", got)
	}
	// Window of 4: old entries evicted.
	if c := l.At(8); c == nil || c.Seq != 1 {
		if c != nil {
			t.Fatalf("At(8) = seq %d", c.Seq)
		}
		// evicted is fine for seq 1 with window 4
	}
	if got := len(l.Window()); got != 4 {
		t.Fatalf("window holds %d entries, want 4", got)
	}
}

func TestLogRejectsBadSignatureAndWrongKey(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	imp := testIdentity(t, "primary", 2) // same name, different key
	l := NewLog("primary", nil, 0)
	if _, err := l.Append(id.Commit(1, 8, root(1), digest.Zero), id.Public()); err != nil {
		t.Fatal(err)
	}
	// Impostor's key conflicts with the pinned one.
	if _, err := l.Append(imp.Commit(2, 16, root(2), root(1)), imp.Public()); !errors.Is(err, ErrKeyConflict) {
		t.Fatalf("impostor submission: %v, want ErrKeyConflict", err)
	}
	// Tampered commitment under the right key fails signature check.
	c := id.Commit(2, 16, root(2), root(1))
	c.Root = root(99)
	if _, err := l.Append(c, nil); err == nil {
		t.Fatal("tampered commitment accepted")
	}
}

func TestLogDetectsForkAndEquivocation(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	cases := []struct {
		name string
		a, b *forensics.Commitment
	}{
		{"same-ctr fork", id.Commit(5, 40, root(1), root(9)), id.Commit(6, 40, root(2), root(9))},
		{"same-seq equivocation", id.Commit(5, 40, root(1), root(9)), id.Commit(5, 48, root(2), root(9))},
		{"chain break", id.Commit(5, 40, root(1), root(9)), id.Commit(6, 48, root(2), root(7))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLog("primary", id.Public(), 0)
			if ev, err := l.Append(tc.a, nil); err != nil || ev != nil {
				t.Fatalf("first append: ev=%v err=%v", ev, err)
			}
			ev, err := l.Append(tc.b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ev == nil {
				t.Fatal("conflict not detected")
			}
			if err := ev.Verify(); err != nil {
				t.Fatalf("evidence bundle does not verify: %v", err)
			}
		})
	}
}

func TestEvidenceCannotBeFabricated(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	liar := testIdentity(t, "primary", 3)
	// A lying witness invents a conflicting commitment it signed itself.
	ev := &forensics.Evidence{
		Server: "primary",
		Pub:    id.Public(),
		A:      *id.Commit(5, 40, root(1), root(9)),
		B:      *liar.Commit(6, 40, root(2), root(9)),
	}
	if err := ev.Verify(); err == nil {
		t.Fatal("fabricated evidence verified")
	}
	// Non-conflicting pairs prove nothing either.
	ev2 := &forensics.Evidence{
		Server: "primary",
		Pub:    id.Public(),
		A:      *id.Commit(5, 40, root(1), root(9)),
		B:      *id.Commit(6, 48, root(2), root(1)),
	}
	if err := ev2.Verify(); err == nil {
		t.Fatal("compatible commitments accepted as evidence")
	}
}

// TestGossipDetectsForkWithinOneRound is the tentpole's latency bound:
// a fork whose branches were submitted to DISJOINT witnesses becomes
// signed evidence after a single gossip exchange between them.
func TestGossipDetectsForkWithinOneRound(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	w1 := NewNode("w1")
	w2 := NewNode("w2")
	w1.AddPeer("w2", w2.Dial())
	w2.AddPeer("w1", w1.Dial())

	// Common prefix to both, then the fork: branch A to w1, branch B to w2.
	common := id.Commit(1, 8, root(1), digest.Zero)
	branchA := id.Commit(2, 16, root(2), root(1))
	branchB := id.Commit(2, 16, root(3), root(1))
	for _, sub := range []struct {
		n *Node
		c *forensics.Commitment
	}{{w1, common}, {w2, common}, {w1, branchA}, {w2, branchB}} {
		if err := sub.n.absorb(sub.c, id.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if len(w1.Evidence()) != 0 || len(w2.Evidence()) != 0 {
		t.Fatal("false alarm before gossip: each witness saw a consistent branch")
	}

	if err := w1.GossipOnce(); err != nil {
		t.Fatal(err)
	}
	// One round: both sides of the exchange must now hold evidence.
	for _, n := range []*Node{w1, w2} {
		evs := n.Evidence()
		if len(evs) == 0 {
			t.Fatalf("witness %s holds no evidence after one gossip round", n.Name())
		}
		for _, ev := range evs {
			if err := ev.Verify(); err != nil {
				t.Fatalf("witness %s evidence: %v", n.Name(), err)
			}
		}
	}
}

func TestGossipBenignConvergenceNoFalseAlarms(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	nodes := []*Node{NewNode("w1"), NewNode("w2"), NewNode("w3")}
	for i, n := range nodes {
		for j, p := range nodes {
			if i != j {
				n.AddPeer(p.Name(), p.Dial())
			}
		}
	}
	// An honest stream scattered across witnesses: each commitment
	// reaches only one node (models per-witness delivery failures).
	prev := digest.Zero
	for i := uint64(1); i <= 9; i++ {
		c := id.Commit(i, i*8, root(byte(i)), prev)
		if err := nodes[i%3].absorb(c, id.Public()); err != nil {
			t.Fatal(err)
		}
		prev = root(byte(i))
	}
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			if err := n.GossipOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		if evs := n.Evidence(); len(evs) != 0 {
			t.Fatalf("witness %s raised false evidence on an honest scattered stream: %s", n.Name(), evs[0])
		}
		if got := n.Latest("primary"); got == nil || got.Seq != 9 {
			t.Fatalf("witness %s did not converge to seq 9: %+v", n.Name(), got)
		}
	}
}

func TestPublisherCadenceAndChain(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	n := NewNode("w1")
	p := NewPublisher(id, 4, 0)
	p.AddWitness("w1", n.Dial())
	for ctr := uint64(1); ctr <= 12; ctr++ {
		p.OpApplied(ctr, root(byte(ctr)))
	}
	p.Flush()
	if err := p.LastErr(); err != nil {
		t.Fatal(err)
	}
	latest := n.Latest("primary")
	if latest == nil {
		t.Fatal("no commitment reached the witness")
	}
	// Cadence 4 over ctrs 1..12 commits at 4, 8, 12 → seq 3 at ctr 12.
	if latest.Seq != 3 || latest.Ctr != 12 {
		t.Fatalf("latest = seq %d ctr %d, want seq 3 ctr 12", latest.Seq, latest.Ctr)
	}
	if latest.Prev != root(8) {
		t.Fatalf("chain: latest.Prev = %s, want root committed at ctr 8", latest.Prev.Short())
	}
	if evs := n.Evidence(); len(evs) != 0 {
		t.Fatalf("honest publisher produced evidence: %s", evs[0])
	}
}

// buildP2 runs a few verified commits so the snapshot has real history
// and a session table has cached outcomes.
func buildP2(t *testing.T) (server.Server, *cvs.Store, *transport.SessionTable) {
	t.Helper()
	db := vdb.New(0)
	srv := server.NewP2(db)
	store := cvs.NewStore()
	user := proto2.NewUser(0, db.Root(), 1000)
	for i := 1; i <= 5; i++ {
		content := fmt.Sprintf("v%d\n", i)
		op := &cvs.CommitOp{
			Files:  []cvs.CommitFile{{Path: "f", Hash: rcs.HashContent([]byte(content))}},
			Author: "u0", TimeUnix: 1,
		}
		raw, err := srv.HandleOp(user.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := user.HandleResponse(op, raw.(*core.OpResponseII)); err != nil {
			t.Fatal(err)
		}
		if err := store.Push("f", uint64(i), []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return srv, store, transport.NewSessionTable()
}

func TestShipSnapshotAndPromote(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	n := NewNode("w1")
	p := NewPublisher(id, 0, 0)
	p.AddWitness("w1", n.Dial())

	srv, store, sessions := buildP2(t)
	snap, err := server.CheckpointP2(srv, store, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ShipSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	p.Flush()

	promo, err := Promote(n, "primary")
	if err != nil {
		t.Fatal(err)
	}
	wantCtr, wantRoot := srv.DB().Head()
	if promo.Ctr != wantCtr || promo.Root != wantRoot {
		t.Fatalf("promoted head (%d, %x) != primary head (%d, %s)", promo.Ctr, promo.Root[:4], wantCtr, wantRoot.Short())
	}
	gotCtr, gotRoot := promo.Server.DB().Head()
	if gotCtr != wantCtr || gotRoot != wantRoot {
		t.Fatal("promoted server head differs from checkpoint head")
	}
	if promo.Sessions == nil {
		t.Fatal("promotion lost the session table")
	}
	// The promoted database's head record names a blob the promoted
	// store serves.
	ans, err := promo.Server.DB().ApplyPlain(&cvs.CheckoutOp{Paths: []string{"f"}})
	if err != nil {
		t.Fatal(err)
	}
	served := false
	cvs.VisitCheckoutAnswer(ans, func(_ int, st cvs.FileStatus) {
		got, err := promo.Store.Fetch("f", st.Rev, st.Hash)
		served = err == nil && st.Rev == 5 && string(got) == "v5\n"
	})
	if !served {
		t.Fatal("promoted store missing history")
	}
}

func TestPromoteRefusesTamperedSnapshot(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	n := NewNode("w1")
	p := NewPublisher(id, 0, 0)
	p.AddWitness("w1", n.Dial())
	srv, store, _ := buildP2(t)
	snap, err := server.CheckpointP2(srv, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ShipSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	// Flip a byte inside the stored envelope: promotion must refuse.
	n.mu.Lock()
	stored := n.snaps["primary"]
	stored.data[len(stored.data)/2] ^= 0x40
	n.mu.Unlock()
	if _, err := Promote(n, "primary"); err == nil {
		t.Fatal("promotion accepted a corrupted checkpoint")
	}
}

func TestWitnessRejectsSnapshotWithWrongHead(t *testing.T) {
	n := NewNode("w1")
	srv, store, _ := buildP2(t)
	snap, err := server.CheckpointP2(srv, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	var data strings.Builder
	if err := server.EncodeP2Snapshot(&data, snap); err != nil {
		t.Fatal(err)
	}
	ctr, dbRoot := srv.DB().Head()
	_, err = n.Handler()(&SnapshotPut{Server: "primary", Ctr: ctr + 1, Root: dbRoot, Data: []byte(data.String())})
	if err == nil {
		t.Fatal("witness stored a snapshot whose declared head it cannot reproduce")
	}
}

// verifiedHead verifies one write to a fresh database and returns its
// post-state as the head at ctr: a test, like a client, holds a head
// only by verifying a response.
func verifiedHead(t *testing.T, ctr uint64, val string) vdb.Head {
	t.Helper()
	db := vdb.New(0)
	op := &vdb.WriteOp{Puts: []vdb.KV{{Key: "k", Val: []byte(val)}}}
	ans, vo, err := db.Apply(op)
	if err != nil {
		t.Fatal(err)
	}
	var vf vdb.Verifier
	v, err := vf.VerifyDerive(op, ans, vo)
	if err != nil {
		t.Fatal(err)
	}
	return v.At(ctr)
}

func TestCheckDivergenceAndBenign(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	w1 := NewNode("w1")
	w2 := NewNode("w2")
	chk := NewCheck("primary", id.Public(), 0)
	chk.AddWitness("w1", w1.Dial())
	chk.AddWitness("w2", w2.Dial())

	// Benign: client verified the same roots the primary committed.
	h1 := verifiedHead(t, 8, "one")
	c1 := id.Commit(1, 8, h1.Root(), digest.Zero)
	for _, n := range []*Node{w1, w2} {
		if err := n.absorb(c1, id.Public()); err != nil {
			t.Fatal(err)
		}
	}
	chk.Observe(h1)
	if err := chk.Verify(); err != nil {
		t.Fatalf("benign verify: %v", err)
	}

	// Divergence: the primary commits root(2) at ctr 16 to witnesses but
	// showed this client another root there.
	c2 := id.Commit(2, 16, root(2), h1.Root())
	for _, n := range []*Node{w1, w2} {
		if err := n.absorb(c2, id.Public()); err != nil {
			t.Fatal(err)
		}
	}
	chk.Observe(verifiedHead(t, 16, "nine"))
	if err := chk.Verify(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("verify = %v, want ErrDiverged", err)
	}
}

func TestCheckSurfacesWitnessEvidence(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	w1 := NewNode("w1")
	if err := w1.absorb(id.Commit(2, 16, root(2), root(1)), id.Public()); err != nil {
		t.Fatal(err)
	}
	if err := w1.absorb(id.Commit(2, 16, root(3), root(1)), id.Public()); err != nil {
		t.Fatal(err)
	}
	if len(w1.Evidence()) == 0 {
		t.Fatal("equivocation not recorded")
	}
	chk := NewCheck("primary", id.Public(), 1)
	chk.AddWitness("w1", w1.Dial())
	if err := chk.Verify(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("verify = %v, want ErrDiverged from witness evidence", err)
	}
	if len(chk.Evidence()) == 0 {
		t.Fatal("check did not collect the evidence bundle")
	}
	for _, ev := range chk.Evidence() {
		if err := ev.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckQuorum(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	w1 := NewNode("w1")
	down := func() (transport.Caller, error) { return nil, errors.New("connection refused") }
	chk := NewCheck("primary", id.Public(), 2)
	chk.AddWitness("w1", w1.Dial())
	chk.AddWitness("w2", down)
	chk.AddWitness("w3", down)
	if err := chk.Verify(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("verify = %v, want ErrNoQuorum", err)
	}
	if errors.Is(chk.Verify(), ErrDiverged) {
		t.Fatal("availability failure misclassified as divergence")
	}
	// One more witness up restores the quorum.
	chk2 := NewCheck("primary", id.Public(), 2)
	chk2.AddWitness("w1", w1.Dial())
	chk2.AddWitness("w2", NewNode("w2").Dial())
	chk2.AddWitness("w3", down)
	if err := chk2.Verify(); err != nil {
		t.Fatalf("quorum of 2/3 should pass: %v", err)
	}
}
