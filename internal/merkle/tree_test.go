package merkle

import (
	"fmt"
	"math/rand"
	"testing"
)

func key(i int) string { return fmt.Sprintf("key-%06d", i) }
func val(i int) []byte { return []byte(fmt.Sprintf("val-%d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := New(0)
	if tr.Order() != DefaultOrder {
		t.Fatalf("Order() = %d, want %d", tr.Order(), DefaultOrder)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get("x"); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	nt, found := tr.Delete("x")
	if found || nt.Len() != 0 {
		t.Fatal("Delete on empty tree should be a no-op")
	}
}

func TestNewPanicsOnTinyOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2) should panic")
		}
	}()
	New(2)
}

func TestPutGet(t *testing.T) {
	tr := New(4)
	const n = 100
	for i := 0; i < n; i++ {
		tr = tr.Put(key(i), val(i))
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after put %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len() = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i))
		if !ok || string(v) != string(val(i)) {
			t.Fatalf("Get(%s) = %q, %v", key(i), v, ok)
		}
	}
	if _, ok := tr.Get("missing"); ok {
		t.Fatal("Get(missing) returned ok")
	}
}

func TestOverwrite(t *testing.T) {
	tr := New(4).Put("a", []byte("1"))
	tr2 := tr.Put("a", []byte("2"))
	if tr2.Len() != 1 {
		t.Fatalf("overwrite changed Len to %d", tr2.Len())
	}
	if v, _ := tr2.Get("a"); string(v) != "2" {
		t.Fatalf("overwrite not applied: %q", v)
	}
	if tr.RootDigest() == tr2.RootDigest() {
		t.Fatal("overwrite must change the root digest")
	}
}

func TestPersistence(t *testing.T) {
	tr := New(4)
	for i := 0; i < 50; i++ {
		tr = tr.Put(key(i), val(i))
	}
	before := tr.RootDigest()
	tr2 := tr.Put(key(7), []byte("changed"))
	tr3, found := tr.Delete(key(3))
	if !found {
		t.Fatal("Delete(key 3) not found")
	}
	// The original version must be completely unaffected.
	if tr.RootDigest() != before {
		t.Fatal("mutation through Put leaked into the old version")
	}
	if v, _ := tr.Get(key(7)); string(v) != string(val(7)) {
		t.Fatal("old version sees new value")
	}
	if _, ok := tr.Get(key(3)); !ok {
		t.Fatal("old version lost a deleted key")
	}
	if v, _ := tr2.Get(key(7)); string(v) != "changed" {
		t.Fatal("new version missing its own write")
	}
	if _, ok := tr3.Get(key(3)); ok {
		t.Fatal("deleted key still visible in new version")
	}
}

func TestDeleteAll(t *testing.T) {
	tr := New(3)
	const n = 200
	for i := 0; i < n; i++ {
		tr = tr.Put(key(i), val(i))
	}
	// Delete in a mixed order to exercise borrows and merges on both
	// sides.
	order := rand.New(rand.NewSource(42)).Perm(n)
	for step, i := range order {
		var found bool
		tr, found = tr.Delete(key(i))
		if !found {
			t.Fatalf("Delete(%s) not found", key(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after delete step %d: %v", step, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d after deleting all", tr.Len())
	}
	if tr.RootDigest() != New(3).RootDigest() {
		t.Fatal("emptied tree must hash like a fresh empty tree")
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New(4).Put("a", []byte("1"))
	nt, found := tr.Delete("zz")
	if found {
		t.Fatal("Delete of missing key reported found")
	}
	if nt.RootDigest() != tr.RootDigest() {
		t.Fatal("Delete of missing key changed the tree")
	}
}

func TestRange(t *testing.T) {
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr = tr.Put(key(i), val(i))
	}
	var got []string
	err := tr.Range(key(10), key(20), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("range [10,20) returned %d keys: %v", len(got), got)
	}
	for i, k := range got {
		if k != key(10+i) {
			t.Fatalf("range out of order at %d: %s", i, k)
		}
	}
	// Unbounded scan.
	count := 0
	if err := tr.Range("", "", func(_, _ []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("full scan saw %d keys", count)
	}
	// Early termination.
	count = 0
	if err := tr.Range("", "", func(_, _ []byte) bool { count++; return count < 5 }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early-terminated scan saw %d keys", count)
	}
}

func TestKeysSorted(t *testing.T) {
	tr := New(5)
	perm := rand.New(rand.NewSource(1)).Perm(64)
	for _, i := range perm {
		tr = tr.Put(key(i), val(i))
	}
	ks := tr.Keys()
	if len(ks) != 64 {
		t.Fatalf("Keys() returned %d keys", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("Keys() not strictly sorted at %d", i)
		}
	}
}

func TestDigestDeterminism(t *testing.T) {
	build := func() *Tree {
		tr := New(4)
		for i := 0; i < 60; i++ {
			tr = tr.Put(key(i), val(i))
		}
		return tr
	}
	if build().RootDigest() != build().RootDigest() {
		t.Fatal("same operation sequence must produce the same root digest")
	}
}

func TestDigestChangesOnAnyMutation(t *testing.T) {
	tr := New(4)
	for i := 0; i < 30; i++ {
		tr = tr.Put(key(i), val(i))
	}
	seen := map[string]bool{tr.RootDigest().String(): true}
	for i := 0; i < 30; i++ {
		nt := tr.Put(key(i), []byte("mutated"))
		d := nt.RootDigest().String()
		if seen[d] {
			t.Fatalf("mutating key %d did not change the root digest", i)
		}
		seen[d] = true
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := New(8)
	for i := 0; i < 10000; i++ {
		tr = tr.Put(key(i), val(i))
	}
	// With order 8, 10k records fit comfortably within height 6.
	if h := tr.Height(); h < 3 || h > 7 {
		t.Fatalf("Height() = %d for 10k records at order 8", h)
	}
}

func TestSequentialAndReverseInsert(t *testing.T) {
	for name, gen := range map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return 999 - i },
	} {
		tr := New(3)
		for i := 0; i < 1000; i++ {
			tr = tr.Put(key(gen(i)), val(gen(i)))
			if i%97 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%s at %d: %v", name, i, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Len() != 1000 {
			t.Fatalf("%s: Len() = %d", name, tr.Len())
		}
	}
}

// Observers and one-key deletes that only these tests use: production
// code removes keys through a Recording or a transaction (deleteCtx).

// Order returns the tree's branching factor.
func (t *Tree) Order() int { return t.order }

// Len returns the number of records in the tree. Trees rebuilt from
// verification objects, and every tree derived from one, report -1:
// pruned subtrees hide their record counts.
func (t *Tree) Len() int { return t.size }

// Delete returns a new tree without key, and whether the key was
// present. The receiver is unchanged.
func (t *Tree) Delete(key string) (*Tree, bool) {
	nt, found, err := t.DeleteErr(key)
	if err != nil {
		panic("merkle: Delete on partial tree; use DeleteErr: " + err.Error())
	}
	return nt, found
}

// DeleteErr is Delete for trees that may have pruned subtrees.
func (t *Tree) DeleteErr(key string) (*Tree, bool, error) {
	c := t.ctx()
	return t.deleteCtx(&c, key)
}
