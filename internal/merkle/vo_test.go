package merkle

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"unsafe"

	"trustedcvs/internal/digest"
)

func buildTree(t *testing.T, order, n int) *Tree {
	t.Helper()
	tr := New(order)
	for i := 0; i < n; i++ {
		tr = tr.Put(key(i), val(i))
	}
	return tr
}

func TestVOReadReplay(t *testing.T) {
	tr := buildTree(t, 4, 200)
	oldRoot := tr.RootDigest()

	rec := tr.Record()
	v, ok, err := rec.Get(key(17))
	if err != nil || !ok || string(v) != string(val(17)) {
		t.Fatalf("recorded Get: %q %v %v", v, ok, err)
	}
	vo := rec.VO()

	// The verifier replays the read on the pruned tree.
	newRoot, err := vo.Replay(oldRoot, func(pt *Tree) (*Tree, error) {
		got, ok, err := pt.GetErr(key(17))
		if err != nil {
			return nil, err
		}
		if !ok || string(got) != string(val(17)) {
			t.Fatalf("replayed Get disagreed: %q %v", got, ok)
		}
		return pt, nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if newRoot != oldRoot {
		t.Fatal("read-only replay changed the root")
	}
}

func TestVONonMembershipProof(t *testing.T) {
	tr := buildTree(t, 4, 100)
	rec := tr.Record()
	_, ok, err := rec.Get("absent-key")
	if err != nil || ok {
		t.Fatalf("Get(absent): %v %v", ok, err)
	}
	vo := rec.VO()
	_, err = vo.Replay(tr.RootDigest(), func(pt *Tree) (*Tree, error) {
		_, ok, err := pt.GetErr("absent-key")
		if err != nil {
			return nil, err
		}
		if ok {
			t.Fatal("replay found an absent key")
		}
		return pt, nil
	})
	if err != nil {
		t.Fatalf("non-membership replay: %v", err)
	}
}

func TestVOUpdateReplay(t *testing.T) {
	tr := buildTree(t, 4, 300)
	oldRoot := tr.RootDigest()

	rec := tr.Record()
	if err := rec.Put(key(50), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := rec.Put("brand-new", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Delete(key(120)); err != nil {
		t.Fatal(err)
	}
	serverNewRoot := rec.Tree().RootDigest()
	vo := rec.VO()

	clientNewRoot, err := vo.Replay(oldRoot, func(pt *Tree) (*Tree, error) {
		pt, err := pt.PutErr(key(50), []byte("updated"))
		if err != nil {
			return nil, err
		}
		pt, err = pt.PutErr("brand-new", []byte("fresh"))
		if err != nil {
			return nil, err
		}
		pt, _, err = pt.DeleteErr(key(120))
		return pt, err
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if clientNewRoot != serverNewRoot {
		t.Fatalf("replayed root %s != server root %s", clientNewRoot.Short(), serverNewRoot.Short())
	}
}

func TestVOSplitAndMergeReplay(t *testing.T) {
	// Force structural changes: tiny order, inserts that split up to
	// the root and deletes that merge back down.
	tr := New(3)
	for i := 0; i < 40; i++ {
		tr = tr.Put(key(i), val(i))
	}
	oldRoot := tr.RootDigest()

	rec := tr.Record()
	for i := 40; i < 60; i++ {
		if err := rec.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := rec.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := rec.Tree().RootDigest()
	got, err := rec.VO().Replay(oldRoot, func(pt *Tree) (*Tree, error) {
		var err error
		for i := 40; i < 60; i++ {
			if pt, err = pt.PutErr(key(i), val(i)); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 20; i++ {
			if pt, _, err = pt.DeleteErr(key(i)); err != nil {
				return nil, err
			}
		}
		return pt, nil
	})
	if err != nil {
		t.Fatalf("Replay with splits/merges: %v", err)
	}
	if got != want {
		t.Fatalf("replayed root %s != server root %s", got.Short(), want.Short())
	}
}

func TestVORejectsWrongOldRoot(t *testing.T) {
	tr := buildTree(t, 4, 50)
	rec := tr.Record()
	_, _, _ = rec.Get(key(1))
	vo := rec.VO()
	bogus := digest.OfBytes(digest.DomainState, []byte("bogus"))
	if _, err := vo.Replay(bogus, func(pt *Tree) (*Tree, error) { return pt, nil }); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("want ErrRootMismatch, got %v", err)
	}
}

func TestVORejectsTamperedValue(t *testing.T) {
	// A server that tampers with a value inside the VO must be caught
	// by the old-root check.
	tr := buildTree(t, 4, 50)
	rec := tr.Record()
	_, _, _ = rec.Get(key(1))
	enc := bytes.Clone(mustMarshal(t, rec.VO()))
	at := bytes.Index(enc, val(1))
	if at < 0 {
		t.Fatal("test bug: the VO does not carry the value read")
	}
	copy(enc[at:], "evil")
	vo, err := ViewVO(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vo.Replay(tr.RootDigest(), func(pt *Tree) (*Tree, error) { return pt, nil }); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("want ErrRootMismatch after tamper, got %v", err)
	}
}

func TestVOInsufficientCoverage(t *testing.T) {
	// A VO recorded for one key cannot support replaying an operation
	// on a different key: the replay must hit a pruned node.
	tr := buildTree(t, 4, 500)
	rec := tr.Record()
	_, _, _ = rec.Get(key(1))
	vo := rec.VO()
	_, err := vo.Replay(tr.RootDigest(), func(pt *Tree) (*Tree, error) {
		return pt.PutErr(key(450), []byte("x"))
	})
	if !errors.Is(err, ErrPruned) {
		t.Fatalf("want ErrPruned, got %v", err)
	}
}

func TestVOEmptyTree(t *testing.T) {
	tr := New(4)
	rec := tr.Record()
	if err := rec.Put("first", []byte("v")); err != nil {
		t.Fatal(err)
	}
	want := rec.Tree().RootDigest()
	got, err := rec.VO().Replay(digest.Empty(), func(pt *Tree) (*Tree, error) {
		return pt.PutErr("first", []byte("v"))
	})
	if err != nil {
		t.Fatalf("Replay from empty: %v", err)
	}
	if got != want {
		t.Fatal("replay from empty tree diverged")
	}
}

func TestVOStatsLogGrowth(t *testing.T) {
	// The number of digests in a single-key VO must grow like log n,
	// not like n (Figure 2 / Section 4.1).
	sizes := []int{100, 1000, 10000}
	var digests []int
	for _, n := range sizes {
		tr := buildTree(t, 8, n)
		rec := tr.Record()
		if err := rec.Put(key(n/2), []byte("x")); err != nil {
			t.Fatal(err)
		}
		s := rec.VO().Stats()
		digests = append(digests, s.PrunedDigests)
	}
	for i, d := range digests {
		if d == 0 || d > 80 {
			t.Fatalf("n=%d: %d pruned digests, want small O(log n) count", sizes[i], d)
		}
	}
	// 100x more records must cost far less than 100x more digests.
	if digests[2] > digests[0]*10 {
		t.Fatalf("digest growth not logarithmic: %v", digests)
	}
}

func TestRecordingRangeAndCoverage(t *testing.T) {
	tr := buildTree(t, 4, 100)
	rec := tr.Record()
	count := 0
	if err := rec.Range(key(10), key(30), func(_, _ []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("recorded range saw %d keys", count)
	}
	_, err := rec.VO().Replay(tr.RootDigest(), func(pt *Tree) (*Tree, error) {
		n := 0
		if err := pt.Range(key(10), key(30), func(_, _ []byte) bool { n++; return true }); err != nil {
			return nil, err
		}
		if n != count {
			t.Fatalf("replayed range saw %d keys, want %d", n, count)
		}
		return pt, nil
	})
	if err != nil {
		t.Fatalf("range replay: %v", err)
	}
}

func TestVORandomizedBatchReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		order := []int{3, 4, 8}[rng.Intn(3)]
		tr := New(order)
		n := 20 + rng.Intn(200)
		for i := 0; i < n; i++ {
			tr = tr.Put(key(rng.Intn(300)), val(i))
		}
		oldRoot := tr.RootDigest()

		type op struct {
			del bool
			k   string
			v   []byte
		}
		var ops []op
		rec := tr.Record()
		for j := 0; j < 1+rng.Intn(10); j++ {
			o := op{del: rng.Intn(3) == 0, k: key(rng.Intn(300)), v: val(rng.Int())}
			ops = append(ops, o)
			if o.del {
				if _, err := rec.Delete(o.k); err != nil {
					t.Fatal(err)
				}
			} else if err := rec.Put(o.k, o.v); err != nil {
				t.Fatal(err)
			}
		}
		want := rec.Tree().RootDigest()
		got, err := rec.VO().Replay(oldRoot, func(pt *Tree) (*Tree, error) {
			var err error
			for _, o := range ops {
				if o.del {
					pt, _, err = pt.DeleteErr(o.k)
				} else {
					pt, err = pt.PutErr(o.k, o.v)
				}
				if err != nil {
					return nil, err
				}
			}
			return pt, nil
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: replayed root mismatch", trial)
		}
		if err := rec.Tree().CheckInvariants(); err != nil {
			t.Fatalf("trial %d: post-state invariants: %v", trial, err)
		}
	}
}

// TestArenaEndKeepsNoPointersAndTrims: between replays an Arena holds no
// pointer — every node and slot of its slabs is zero to their capacity
// — and a replay of a small VO after one that expanded the whole tree
// lets go of the large slabs, so a VO that expands far more than its
// operation touches leaves no large memory behind.
func TestArenaEndKeepsNoPointersAndTrims(t *testing.T) {
	tr := buildTree(t, 4, 2000)
	whole := tr.Record()
	if err := whole.Range("", "", func(_, _ []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	one := tr.Record()
	if err := one.Put(key(17), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	var a Arena
	replay := func(vo *VO) {
		t.Helper()
		rec, old, err := a.Begin(vo)
		if err != nil || old != tr.RootDigest() {
			t.Fatalf("Begin: %s %v", old.Short(), err)
		}
		if err := rec.Put(key(17), []byte("rewritten")); err != nil {
			t.Fatal(err)
		}
		_ = rec.Tree().RootDigest()
		a.End()
		if a.tree != (Tree{}) || a.rec != (Recording{}) {
			t.Fatal("End left the tree or the transaction")
		}
		nodes := a.nodes[:cap(a.nodes)]
		for i := range nodes {
			if n := &nodes[i]; n.enc != nil || n.kids != nil || n.memo.Load() != 0 || n.dig != (digest.Digest{}) {
				t.Fatalf("node %d of the slab survives End", i)
			}
		}
		for i, k := range a.kids[:cap(a.kids)] {
			if k != (kid{}) {
				t.Fatalf("slot %d of the slab survives End", i)
			}
		}
	}
	big := whole.VO()
	replay(big)
	if cap(a.nodes) < int(big.nodes) {
		t.Fatalf("the whole tree's %d nodes fit a slab of %d", big.nodes, cap(a.nodes))
	}
	small := one.VO()
	replay(small)
	if c := cap(a.nodes); c > max(4*int(small.nodes), 64) || cap(a.kids) > max(4*small.slots(), 256) {
		t.Fatalf("after a %d-node VO the arena keeps slabs of %d nodes and %d slots", small.nodes, c, cap(a.kids))
	}
}

// TestVOIsSixtyFourBytes: a VO fits the 64-byte size class. Every
// operation makes two, which die with it; at 80 bytes they shared a
// class with the tree's five-slot child arrays and left that class's
// spans sparse after every collection.
func TestVOIsSixtyFourBytes(t *testing.T) {
	if got := unsafe.Sizeof(VO{}); got != 64 {
		t.Errorf("VO is %d bytes, want 64", got)
	}
}
