package merkle

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"trustedcvs/internal/digest"
)

// The ownership mark lives in words the structures already had, and a
// node's keys and values are one byte string: a node is 88 bytes and a
// Recording stays in the 32-byte size class that every single-key
// operation allocates.
func TestOwnershipCostsNoBytes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 88 {
		t.Errorf("node is %d bytes, want 88", got)
	}
	if got := unsafe.Sizeof(Recording{}); got != 32 {
		t.Errorf("Recording is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(ctx{}); got != 16 {
		t.Errorf("ctx is %d bytes, want 16", got)
	}
}

// nodesOf returns every node reachable from t.
func nodesOf(t *Tree) map[*node]bool {
	seen := map[*node]bool{}
	var walk func(k kid)
	walk = func(k kid) {
		if k.n == nil || seen[k.n] {
			return
		}
		seen[k.n] = true
		for _, c := range k.n.kids {
			walk(c)
		}
	}
	walk(t.root)
	return seen
}

// published fails the test if a tree that was handed out holds a node
// some transaction still owns.
func published(t *testing.T, what string, tr *Tree) {
	t.Helper()
	for n := range nodesOf(tr) {
		if n.owned() {
			t.Fatalf("%s: a handed-out tree holds an owned node (body %x)", what, n.enc)
		}
	}
}

func image(tr *Tree) []byte { return tr.Snapshot().Append(nil) }

func seqTree(order, n int) *Tree {
	tr := New(order)
	for i := 0; i < n; i++ {
		tr = tr.Put(fmt.Sprintf("key-%06d", i), []byte("v"))
	}
	return tr
}

// txStep is one write of a random transaction.
type txStep struct {
	del bool
	key string
	val []byte
}

func randomSteps(rng *rand.Rand, m, keyspace int) []txStep {
	steps := make([]txStep, m)
	for i := range steps {
		steps[i] = txStep{
			del: rng.Intn(3) == 0,
			key: fmt.Sprintf("key-%06d", rng.Intn(keyspace)),
			val: []byte(fmt.Sprintf("w%d", rng.Int31())),
		}
	}
	return steps
}

func (s txStep) on(r *Recording) error {
	if s.del {
		_, err := r.Delete(s.key)
		return err
	}
	return r.Put(s.key, s.val)
}

// TestTransactionEqualsSingleKeyOps is the ownership rule's property
// test: m puts, overwrites and deletes through one Recording — with
// splits, borrows, merges and root growth and collapse at small orders
// — leave the very tree (same bytes, same root) that m one-shot
// persistent operations leave; the pre-state is untouched down to its
// bytes; nothing handed out holds an owned node; and the verifier's
// in-place replay of the transaction on its VO lands on the same root.
func TestTransactionEqualsSingleKeyOps(t *testing.T) {
	for _, order := range []int{3, 4, 8} {
		for _, m := range []int{1, 2, 8, 64, 1000} {
			rng := rand.New(rand.NewSource(int64(order*10_000 + m)))
			const n = 600
			base := seqTree(order, n)
			// Thin the tree out first so that deletes meet minimal nodes.
			for i := 0; i < n/3; i++ {
				base, _ = base.Delete(fmt.Sprintf("key-%06d", rng.Intn(n)))
			}
			baseRoot, baseImage, baseKeys := base.RootDigest(), image(base), base.Keys()
			steps := randomSteps(rng, m, n+n/4)

			rec, single := base.Record(), base
			for _, s := range steps {
				if err := s.on(rec); err != nil {
					t.Fatal(err)
				}
				if s.del {
					single, _ = single.Delete(s.key)
				} else {
					single = single.Put(s.key, s.val)
				}
			}
			post := rec.Tree()
			name := fmt.Sprintf("order %d, %d keys", order, m)
			published(t, name, post)
			if err := post.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if post.RootDigest() != single.RootDigest() || !bytes.Equal(image(post), image(single)) || post.Len() != single.Len() {
				t.Fatalf("%s: the transaction and the single-key operations built different trees", name)
			}
			if base.RootDigest() != baseRoot || !bytes.Equal(image(base), baseImage) {
				t.Fatalf("%s: the transaction wrote into its pre-state", name)
			}
			for _, k := range baseKeys {
				if _, ok := base.Get(k); !ok {
					t.Fatalf("%s: pre-state lost key %s", name, k)
				}
			}

			replay, oldRoot, err := rec.VO().Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range steps {
				if err := s.on(replay); err != nil {
					t.Fatalf("%s: replay: %v", name, err)
				}
			}
			verified := replay.Tree()
			published(t, name+", replay", verified)
			if oldRoot != baseRoot || verified.RootDigest() != post.RootDigest() {
				t.Fatalf("%s: replay on the VO went from %s to %s, server from %s to %s", name,
					oldRoot.Short(), verified.RootDigest().Short(), baseRoot.Short(), post.RootDigest().Short())
			}
			if verified.Len() != -1 {
				t.Fatalf("%s: a tree replayed from a VO reports %d records, want -1", name, verified.Len())
			}
		}
	}
}

// TestTransactionHashesEachNewNodeOnce: however many keys a transaction
// writes under a node, the node is created once and hashed once — the
// root computation after an m-key transaction hashes exactly the nodes
// the post-state does not share with the pre-state — and far fewer
// nodes are new than m root-to-leaf paths hold.
func TestTransactionHashesEachNewNodeOnce(t *testing.T) {
	base := seqTree(0, 20_000)
	base.RootDigest()
	old := nodesOf(base)
	for _, m := range []int{1, 2, 8, 64, 1000} {
		rng := rand.New(rand.NewSource(int64(m)))
		rec := base.Record()
		for _, s := range randomSteps(rng, m, 21_000) {
			if err := s.on(rec); err != nil {
				t.Fatal(err)
			}
		}
		post := rec.Tree()
		fresh := 0
		for n := range nodesOf(post) {
			if !old[n] {
				fresh++
			}
		}
		before := hashCount.Load()
		post.RootDigest()
		if hashed := int(hashCount.Load() - before); hashed != fresh {
			t.Errorf("%d keys: %d new nodes, %d digests computed", m, fresh, hashed)
		}
		post.RootDigest()
		if again := hashCount.Load() - before; int(again) != fresh {
			t.Errorf("%d keys: the second root computation hashed %d more nodes", m, int(again)-fresh)
		}
		if paths := m * base.Height(); m == 1000 && fresh*2 > paths {
			t.Errorf("%d keys: %d new nodes for %d path nodes; the transaction is copying per key", m, fresh, paths)
		}
	}
}

// TestPublicationEndsOwnership: what Recording.Tree hands out is
// immutable like any tree. Writes through the same Recording afterwards
// must copy: the handed-out tree keeps its bytes, its root digest —
// computed before or after — and every key, as does the base.
func TestPublicationEndsOwnership(t *testing.T) {
	for _, order := range []int{3, 8} {
		rng := rand.New(rand.NewSource(int64(order)))
		base := seqTree(order, 400)
		baseImage := image(base)
		rec := base.Record()
		for _, s := range randomSteps(rng, 50, 500) {
			if err := s.on(rec); err != nil {
				t.Fatal(err)
			}
		}
		first := rec.Tree()
		published(t, "first hand-out", first)
		firstImage := image(first) // the root digest is deliberately not taken yet
		for _, s := range randomSteps(rng, 200, 500) {
			if err := s.on(rec); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(image(first), firstImage) {
			t.Fatalf("order %d: a write after Tree() edited the tree it handed out", order)
		}
		firstRoot := first.RootDigest()
		second := rec.Tree()
		published(t, "second hand-out", second)
		if second == first || second.RootDigest() == firstRoot {
			t.Fatalf("order %d: the later writes are missing from the second hand-out", order)
		}
		restored, err := Restore(first.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if restored.RootDigest() != firstRoot || !bytes.Equal(image(base), baseImage) {
			t.Fatalf("order %d: first hand-out or base changed after publication", order)
		}
		// The VO still describes the base, whatever happened since.
		if _, err := rec.VO().Replay(base.RootDigest(), func(pt *Tree) (*Tree, error) { return pt, nil }); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
	}
}

// TestLenUnknownStaysUnknown: a tree rebuilt from a verification object
// does not know its record count, and neither does anything derived
// from it, by whichever road.
func TestLenUnknownStaysUnknown(t *testing.T) {
	base := seqTree(0, 100)
	rec := base.Record()
	if err := rec.Put("key-000007", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Delete("key-000008"); err != nil {
		t.Fatal(err)
	}
	if err := rec.Put("key-000008x", []byte("x")); err != nil {
		t.Fatal(err)
	}
	vo := rec.VO()
	pt, err := vo.Tree()
	if err != nil {
		t.Fatal(err)
	}
	// The recorded steps again, which is what the VO covers.
	steps := []func(*Tree) *Tree{
		func(t *Tree) *Tree { nt, _ := t.PutErr("key-000007", []byte("x")); return nt },
		func(t *Tree) *Tree { nt, _, _ := t.DeleteErr("key-000008"); return nt },
		func(t *Tree) *Tree { nt, _ := t.PutErr("key-000008x", []byte("x")); return nt },
	}
	for i, step := range steps {
		if pt = step(pt); pt == nil || pt.Len() != -1 {
			t.Fatalf("step %d: Len() = %v, want -1", i, pt)
		}
	}
	tx, _, err := vo.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("key-000007", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete("key-000008"); err != nil {
		t.Fatal(err)
	}
	if got := tx.Tree().Len(); got != -1 {
		t.Fatalf("replayed tree: Len() = %d, want -1", got)
	}
	if got := rec.Tree().Len(); got != 100 {
		t.Fatalf("server tree: Len() = %d, want 100", got)
	}
}

// digestsOf returns the digest of every pruned slot reachable from t.
func digestsOf(t *Tree) []*digest.Digest {
	var ds []*digest.Digest
	var walk func(k kid)
	walk = func(k kid) {
		if k.d != nil {
			ds = append(ds, k.d)
		}
		if k.n != nil {
			for _, c := range k.n.kids {
				walk(c)
			}
		}
	}
	walk(t.root)
	return ds
}

// leafSize returns the number of keys in the leaf responsible for key.
func leafSize(tr *Tree, key string) int {
	n := tr.root.n
	for !n.leaf {
		n = n.kids[n.childIndex(key)].n
	}
	return n.count()
}

// leaves returns the number of leaves of tr.
func leaves(tr *Tree) int {
	count := 0
	for n := range nodesOf(tr) {
		if n.leaf {
			count++
		}
	}
	return count
}

// TestReplayNeverWritesVOBytes: the verifier's replay owns every node
// VO.Begin decodes, but not the bytes those nodes are windows onto —
// the VO's, which are the wire decoder's frame buffer. A put overwrite,
// an insert that splits, a delete that borrows and a delete that merges,
// each replayed on such nodes, leave the frame and the VO's encoding as
// they were, and land on the server's root. Every pruned slot's digest
// stays a window onto the frame, equal to the bytes received there.
func TestReplayNeverWritesVOBytes(t *testing.T) {
	const order = 4
	rng := rand.New(rand.NewSource(3))
	base := New(order)
	for _, i := range rng.Perm(400) {
		base = base.Put(fmt.Sprintf("key-%06d", i*2), []byte(fmt.Sprintf("value-%04d", i)))
	}
	// Pick each step's key on the tree the steps before it left, so that
	// the step does what its name says.
	type step struct {
		name string
		s    txStep
		is   func(before, after *Tree, key string) bool
	}
	min := order / 2
	steps := []step{
		// The same length as every value it may replace: an encoding
		// that fits where the old one was must still be a new one.
		{"put overwrite", txStep{val: []byte("overwrite!")}, func(b, a *Tree, k string) bool {
			_, ok := b.Get(k)
			return ok && leaves(a) == leaves(b)
		}},
		{"insert that splits", txStep{val: []byte("inserted")}, func(b, a *Tree, k string) bool {
			return leaves(a) == leaves(b)+1
		}},
		{"delete that borrows", txStep{del: true}, func(b, a *Tree, k string) bool {
			return leafSize(b, k) == min && leaves(a) == leaves(b) && a.Len() == b.Len()-1
		}},
		{"delete that merges", txStep{del: true}, func(b, a *Tree, k string) bool {
			return leaves(a) == leaves(b)-1
		}},
	}
	cur := base
	for i := range steps {
		st := &steps[i]
		insert := 0 // the tree holds the even keys
		if st.name == "insert that splits" {
			insert = 1
		}
		for c := 0; c < 400 && st.s.key == ""; c++ {
			k := fmt.Sprintf("key-%06d", (c*7)%400*2+insert)
			if st.s.del {
				if next, found := cur.Delete(k); found && st.is(cur, next, k) {
					st.s.key, cur = k, next
				}
			} else if next := cur.Put(k, st.s.val); st.is(cur, next, k) {
				st.s.key, cur = k, next
			}
		}
		if st.s.key == "" {
			t.Fatalf("test bug: no key makes a %s", st.name)
		}
		t.Logf("%s: %s", st.name, st.s.key)
	}

	rec := base.Record()
	for _, st := range steps {
		if err := st.s.on(rec); err != nil {
			t.Fatal(err)
		}
	}
	enc := mustMarshal(t, rec.VO())
	frame := append(append([]byte("head"), enc...), "tail"...)
	received := bytes.Clone(frame)
	vo, err := ViewVO(frame[4 : 4+len(enc)])
	if err != nil {
		t.Fatal(err)
	}
	replay, _, err := vo.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if err := st.s.on(replay); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !bytes.Equal(frame, received) || !bytes.Equal(mustMarshal(t, vo), enc) {
			t.Fatalf("%s: the replay wrote into the VO's bytes", st.name)
		}
		windows := digestsOf(replay.cur)
		if len(windows) == 0 {
			t.Fatalf("test bug: %s left no pruned slot", st.name)
		}
		for _, d := range windows {
			off := int(uintptr(unsafe.Pointer(d)) - uintptr(unsafe.Pointer(&frame[0])))
			if off < 0 || off+digest.Size > len(frame) {
				t.Fatalf("%s: a pruned slot's digest is a copy, not a window onto the frame", st.name)
			}
			if *d != digest.Digest(received[off:off+digest.Size]) {
				t.Fatalf("%s: a pruned slot's digest differs from its bytes in the frame", st.name)
			}
		}
	}
	if got, want := replay.Tree().RootDigest(), rec.Tree().RootDigest(); got != want || want != cur.RootDigest() {
		t.Fatalf("replay root %s, server %s, one-shot %s", got.Short(), want.Short(), cur.RootDigest().Short())
	}
}
