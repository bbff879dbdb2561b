package merkle

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
)

// reread sends a snapshot through its encoding, as a checkpoint does.
func reread(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	r := binenc.NewReader(s.Append(nil))
	back := ReadSnapshot(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if again := back.Append(nil); !bytes.Equal(again, s.Append(nil)) {
		t.Fatal("decode + encode is not the identity")
	}
	return back
}

func TestSnapshotRoundTrip(t *testing.T) {
	tr := New(4)
	for i := 0; i < 500; i++ {
		tr = tr.Put(key(i), val(i))
	}
	for i := 0; i < 100; i += 3 {
		tr, _ = tr.Delete(key(i))
	}
	want := tr.RootDigest()

	got, err := Restore(reread(t, tr.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if got.RootDigest() != want {
		t.Fatal("restored root digest differs — restarted servers would break every client")
	}
	if got.Len() != tr.Len() {
		t.Fatalf("Len %d != %d", got.Len(), tr.Len())
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The restored tree must be fully functional.
	nt := got.Put("new-key", []byte("v"))
	if _, ok := nt.Get("new-key"); !ok {
		t.Fatal("restored tree not writable")
	}
}

func TestSnapshotEmptyTree(t *testing.T) {
	tr := New(0)
	got, err := Restore(reread(t, tr.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if got.RootDigest() != tr.RootDigest() || got.Len() != 0 {
		t.Fatal("empty snapshot round trip")
	}
}

// TestSnapshotIndependence: trees restored from one snapshot share its
// bytes, so writing to one of them must leave the other, the snapshot
// and the tree it was cut from as they were.
func TestSnapshotIndependence(t *testing.T) {
	tr := New(4).Put("k", []byte("original"))
	snap := tr.Snapshot()
	a, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	a = a.Put("k", []byte("rewritten"))
	if v, _ := a.Get("k"); string(v) != "rewritten" {
		t.Fatal("write to a restored tree lost")
	}
	if v, _ := b.Get("k"); string(v) != "original" {
		t.Fatal("restored trees share mutable memory")
	}
	c, err := Restore(snap)
	if err != nil || c.RootDigest() != tr.RootDigest() {
		t.Fatalf("snapshot changed under a restored tree (err %v)", err)
	}
}

// TestRestoreRejectsGarbage: hand-built flat bytes for every shape a
// snapshot file could claim and a complete tree cannot have.
func TestRestoreRejectsGarbage(t *testing.T) {
	leaf := func(keys ...string) []byte { return leafNode(keys, make([]string, len(keys))...) }
	d := digest.OfBytes(0, nil)
	cases := map[string]*Snapshot{
		"nil":           nil,
		"no encoding":   {},
		"bad order":     {vo: *ample(voOf(1, []byte{voAbsent}))},
		"negative size": {size: -1, vo: *ample(voOf(4, leaf("a")))},
		"bad size":      {size: 5, vo: *ample(voOf(4, leaf("a")))},
		"sized empty":   {size: 1, vo: *ample(voOf(4, []byte{voAbsent}))},
		"bad shape":     {vo: *ample(voOf(4, internalNode([]string{"a"})))},
		"absent child":  {vo: *ample(voOf(4, internalNode([]string{"a"}, []byte{voAbsent}, []byte{voAbsent})))},
		"underfull":     {size: 1, vo: *ample(voOf(8, internalNode([]string{"b"}, leaf(), leaf("b"))))},
		"unsorted":      {size: 2, vo: *ample(voOf(4, leaf("b", "a")))},
		"duplicates":    {size: 2, vo: *ample(voOf(4, leaf("a", "a")))},
		"pruned node":   {size: 2, vo: *ample(voOf(4, internalNode([]string{"b"}, leaf("a"), prunedNode(d))))},
		"pruned root":   {size: 2, vo: *ample(voOf(4, prunedNode(d)))},
		"uneven leaves": {size: 2, vo: *ample(voOf(4, internalNode([]string{"b"}, leaf("a"), internalNode([]string{"c"}, leaf("b"), leaf("c")))))},
		"out of range":  {size: 2, vo: *ample(voOf(4, internalNode([]string{"b"}, leaf("c"), leaf("d"))))},
	}
	for name, s := range cases {
		if _, err := Restore(s); !errors.Is(err, ErrMalformedVO) {
			t.Errorf("%s: Restore = %v, want ErrMalformedVO", name, err)
		}
	}
	// A record count the bytes cannot back never reaches Restore.
	r := binenc.NewReader(append([]byte{200}, binenc.AppendBytes(nil, voOf(4, leaf("a")))...))
	if ReadSnapshot(r); r.Err() == nil {
		t.Error("a record count beyond the input was read")
	}
	// Nor do bytes outside the VO grammar: ReadSnapshot scans them as
	// ViewVO does.
	r = binenc.NewReader(append([]byte{1}, binenc.AppendBytes(nil, voOf(4, internalNode([]string{"a"})))...))
	if ReadSnapshot(r); r.Err() == nil {
		t.Error("a tree outside the grammar was read")
	}
}

// TestRestoreRefusesPartialTreeSnapshot: a verifier's partial tree
// snapshots to an encoding with pruned nodes in it, which Restore
// refuses — only a complete tree can become a server's state.
func TestRestoreRefusesPartialTreeSnapshot(t *testing.T) {
	tr := New(4)
	for i := 0; i < 50; i++ {
		tr = tr.Put(key(i), val(i))
	}
	rec := tr.Record()
	_, _, _ = rec.Get(key(1))
	pt, err := rec.VO().Tree()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(pt.Snapshot()); !errors.Is(err, ErrMalformedVO) {
		t.Fatalf("Restore of a partial tree's snapshot = %v, want ErrMalformedVO", err)
	}
	// Even with the size filled in, the pruned nodes are refused.
	snap := pt.Snapshot()
	snap.size = tr.Len()
	if _, err := Restore(snap); !errors.Is(err, ErrMalformedVO) {
		t.Fatalf("Restore of a sized partial snapshot = %v, want ErrMalformedVO", err)
	}
}

func TestQuickSnapshotPreservesDigest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New([]int{3, 4, 8, 16}[rng.Intn(4)])
		for i, n := 0, rng.Intn(300); i < n; i++ {
			k := key(rng.Intn(200))
			if rng.Intn(4) == 0 {
				tr, _ = tr.Delete(k)
			} else {
				tr = tr.Put(k, val(rng.Int()))
			}
		}
		restored, err := Restore(reread(t, tr.Snapshot()))
		if err != nil {
			t.Log(err)
			return false
		}
		return restored.RootDigest() == tr.RootDigest() && restored.Len() == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
