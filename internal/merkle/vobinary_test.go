package merkle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"trustedcvs/internal/digest"
)

var update = flag.Bool("update", false, "rewrite the golden VOs and the FuzzVOVerify seed corpus")

// goldenVOs builds the two pinned verification objects over one
// deterministic tree (order 4, 64 records): a single-key read and a
// single-key update. Their bytes are a contract between binaries.
func goldenVOs(t testing.TB) (root digest.Digest, read, upd *VO) {
	t.Helper()
	rec := New(4).Record()
	for i := 0; i < 64; i++ {
		if err := rec.Put(fmt.Sprintf("key-%03d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	full := rec.Tree()
	r := full.Record()
	if _, _, err := r.Get("key-007"); err != nil {
		t.Fatal(err)
	}
	u := full.Record()
	if err := u.Put("key-031", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	return full.RootDigest(), r.VO(), u.VO()
}

func mustMarshal(t testing.TB, v *VO) []byte {
	t.Helper()
	b, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFuzzSeed(t *testing.T, name string, b []byte) {
	t.Helper()
	path := filepath.Join("testdata", "fuzz", "FuzzVOVerify", name)
	if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVOBinaryGolden(t *testing.T) {
	root, read, upd := goldenVOs(t)
	if *update {
		honest := mustMarshal(t, read)
		mutated := append([]byte(nil), honest...)
		mutated[len(mutated)/2] ^= 0x20
		writeFuzzSeed(t, "seed-honest-vo", honest)
		writeFuzzSeed(t, "seed-mutated-vo", mutated)
		writeFuzzSeed(t, "seed-update-vo", mustMarshal(t, upd))
		writeFuzzSeed(t, "seed-short-trailing-digest", shortTrailingDigest())
	}
	for name, vo := range map[string]*VO{"read.vo": read, "update.vo": upd} {
		path := filepath.Join("testdata", "golden", name)
		got := mustMarshal(t, vo)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("%s: encoding changed (%d bytes, golden %d): this is a wire format bump", name, len(got), len(golden))
		}
		back, err := ViewVO(golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tree, err := back.Tree()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tree.RootDigest() != root {
			t.Errorf("%s: decodes to root %s, want %s", name, tree.RootDigest().Short(), root.Short())
		}
		if back.Stats() != vo.Stats() {
			t.Errorf("%s: stats %+v, want %+v", name, back.Stats(), vo.Stats())
		}
		if again := mustMarshal(t, back); !bytes.Equal(again, golden) {
			t.Errorf("%s: decode + encode is not the identity", name)
		}
	}
}

// TestVOBinaryEmptyTree: the VO of an empty tree is the order and one
// absent node, and materializes as a nil root.
func TestVOBinaryEmptyTree(t *testing.T) {
	b := mustMarshal(t, New(4).Record().VO())
	if !bytes.Equal(b, []byte{4, 0}) {
		t.Fatalf("empty-tree VO = %x, want 0400", b)
	}
	v, err := ViewVO(b)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := v.Tree()
	if err != nil || tree.Order() != 4 || tree.root != (kid{}) {
		t.Fatalf("decoded %+v, err %v", tree, err)
	}
}

// The test-only appender: encodings spelled by hand, mostly ones no
// Recording produces. A leaf is given as many values as the case wants,
// whatever its key count says.
func voOf(order uint64, node []byte) []byte {
	return append(binary.AppendUvarint(nil, order), node...)
}

// lensBytes spells the body of a strings: all lengths, then all bytes.
func lensBytes(items ...string) []byte {
	var b []byte
	for _, it := range items {
		b = binary.AppendUvarint(b, uint64(len(it)))
	}
	for _, it := range items {
		b = append(b, it...)
	}
	return b
}

func prunedNode(d digest.Digest) []byte { return append([]byte{voPruned}, d[:]...) }

func leafNode(keys []string, vals ...string) []byte {
	b := binary.AppendUvarint([]byte{voLeaf}, uint64(len(keys)))
	return append(append(b, lensBytes(keys...)...), lensBytes(vals...)...)
}

func internalNode(keys []string, kids ...[]byte) []byte {
	b := binary.AppendUvarint([]byte{voInternal}, uint64(len(keys)))
	return append(append(b, lensBytes(keys...)...), bytes.Join(kids, nil)...)
}

// ample wraps b as a VO with the largest counts b could back, whatever
// b holds: an expanded node takes at least two bytes, a pruned one 33.
func ample(b []byte) *VO {
	return &VO{enc: b, nodes: int32(len(b) / 2), digests: int32(len(b) / (1 + digest.Size))}
}

// shortTrailingDigest is a VO whose last pruned node ends the input
// 12 bytes short of its digest.
func shortTrailingDigest() []byte {
	d := digest.OfBytes(0, nil)
	b := voOf(4, internalNode([]string{"k"}, leafNode([]string{"a"}, "1"), prunedNode(d)))
	return b[:len(b)-12]
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestVOHostileInput: everything the verifier refuses is
// ErrMalformedVO — grammar at ViewVO, shape at Tree, which
// repeats the grammar checks for a VO that never crossed a wire — and
// the refusal is decided before any allocation a count could buy.
func TestVOHostileInput(t *testing.T) {
	_, read, _ := goldenVOs(t)
	honest := mustMarshal(t, read)
	d := digest.OfBytes(0, nil)
	deep := leafNode(nil)
	for i := 0; i < maxVODepth+2; i++ {
		deep = internalNode(nil, deep)
	}
	leaf := leafNode([]string{"a"}, "1")
	grammar := map[string][]byte{
		"empty":                   {},
		"order only":              {4},
		"trailing byte":           append(bytes.Clone(honest), 0),
		"truncated":               honest[:len(honest)-1],
		"unknown node kind":       {4, 9},
		"non-minimal order":       {0x84, 0x00, 0},
		"huge order":              {0xff, 0xff, 0xff, 0xff, 0x7f, 0},
		"short digest":            {4, voPruned, 1, 2, 3},
		"key count beyond input":  {4, voLeaf, 0xff, 0xff, 0xff, 0xff, 0x07},
		"kid count beyond input":  voOf(1<<30, append(binary.AppendUvarint([]byte{voInternal}, 1<<28), 1, 'k')),
		"kids beyond input":       voOf(4, internalNode([]string{"a", "b", "c"}, leaf)),
		"key bytes beyond input":  {4, voLeaf, 1, 0x7f, 'k'},
		"val bytes beyond input":  {4, voLeaf, 1, 1, 'k', 0x7f, 'v'},
		"fewer values than keys":  voOf(4, leafNode([]string{"a", "b"}, "1")),
		"more values than keys":   voOf(4, leafNode([]string{"a"}, "1", "2")),
		"non-minimal key count":   {4, voLeaf, 0x81, 0x00, 1, 'k', 1, 'v'},
		"non-minimal key length":  {4, voLeaf, 1, 0x81, 0x00, 'k', 1, 'v'},
		"non-minimal val length":  {4, voLeaf, 1, 1, 'k', 0x81, 0x00, 'v'},
		"too deep":                voOf(4, deep),
		"too deep under a digest": voOf(4, internalNode([]string{"k"}, prunedNode(d), deep)),
		"short trailing digest":   shortTrailingDigest(),
	}
	shape := map[string][]byte{
		"order below minimum":     voOf(2, leaf),
		"pruned without digest":   voOf(4, prunedNode(digest.Zero)),
		"unsorted leaf keys":      voOf(4, leafNode([]string{"b", "a"}, "", "")),
		"duplicate leaf keys":     voOf(4, leafNode([]string{"a", "a"}, "", "")),
		"unsorted internal keys":  voOf(4, internalNode([]string{"b", "a"}, prunedNode(d), prunedNode(d), prunedNode(d))),
		"overfull leaf":           voOf(4, leafNode([]string{"a", "b", "c", "d", "e"}, "", "", "", "", "")),
		"overfull internal":       voOf(3, internalNode([]string{"a", "b", "c", "d"}, leaf, leaf, leaf, leaf, leaf)),
		"absent child":            voOf(4, internalNode([]string{"k"}, prunedNode(d), []byte{voAbsent})),
		"absent first child":      voOf(4, internalNode([]string{"k"}, []byte{voAbsent}, leaf)),
		"overfull below a digest": voOf(3, internalNode([]string{"k"}, prunedNode(d), leafNode([]string{"l", "m", "n", "o"}, "", "", "", ""))),
	}
	// Tree allocates at most a node for every two input bytes and a slot
	// for every node or digest — some 53 bytes per input byte, bounded
	// here at 64 (128 when an internal node's count sized a slab before
	// its children were read) — and only for counts a scan of the bytes
	// found (or, for the grammar cases, the most the bytes could back);
	// the lying counts above claim 2^28 and more.
	refusal := func(name string, input []byte, fn func() error) {
		t.Helper()
		var err error
		got := allocated(func() { err = fn() })
		if !errors.Is(err, ErrMalformedVO) {
			t.Errorf("%s: want ErrMalformedVO, got %v", name, err)
		}
		if limit := uint64(2048 + 64*len(input)); got > limit {
			t.Errorf("%s: the refusal allocated %d bytes, limit %d", name, got, limit)
		}
	}
	for name, b := range grammar {
		var v *VO
		refusal(name, b, func() (err error) { v, err = ViewVO(b); return err })
		if v != nil {
			t.Errorf("%s: a rejected input left %x behind", name, v.enc)
		}
		// The same bytes in a VO that never went through ViewVO: the
		// decoder repeats the grammar checks whatever the counts.
		refusal(name+" (Tree)", b, func() error { _, err := ample(b).Tree(); return err })
	}
	for name, b := range shape {
		v, err := ViewVO(b)
		if err != nil {
			t.Errorf("%s: grammatical input refused at decode: %v", name, err)
			continue
		}
		refusal(name, b, func() error { _, err := v.Tree(); return err })
	}
	if _, err := new(VO).MarshalBinary(); !errors.Is(err, ErrMalformedVO) {
		t.Errorf("zero VO: MarshalBinary = %v, want ErrMalformedVO", err)
	}
	if _, err := (*VO)(nil).MarshalBinary(); !errors.Is(err, ErrMalformedVO) {
		t.Errorf("nil VO: MarshalBinary = %v, want ErrMalformedVO", err)
	}
}

// TestVOOnePassAllocations pins what the single representation buys:
// accepting a VO costs the VO itself, and a tree costs three
// allocations — the Tree, one slab of expanded nodes and one of child
// slots, sized by the counts the scan took — however deep the VO is:
// nothing per node, leaf, key, value or pruned digest, not even a copy
// of the VO's bytes. (Building one is two allocations, the VO and its
// bytes, when the scratch pool is warm: BenchmarkVOBuild.)
func TestVOOnePassAllocations(t *testing.T) {
	tr := buildTree(t, 8, 10_000)
	tr.RootDigest()
	rec := tr.Record()
	if err := rec.Put(key(5000), []byte("x")); err != nil {
		t.Fatal(err)
	}
	vo := rec.VO()
	enc := mustMarshal(t, vo)
	nodes := vo.Stats().ExpandedNodes + vo.Stats().PrunedDigests
	if nodes < 20 {
		t.Fatalf("test bug: only %d nodes in the VO", nodes)
	}
	var back *VO
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if back, err = ViewVO(enc); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("ViewVO: %.0f allocations, want 1", n)
	}
	if back.nodes != vo.nodes || back.digests != vo.digests {
		t.Errorf("ViewVO counted %d nodes and %d digests, Recording.VO %d and %d", back.nodes, back.digests, vo.nodes, vo.digests)
	}
	if n := testing.AllocsPerRun(100, func() { _ = vo.Stats() }); n != 0 {
		t.Errorf("Stats: %.0f allocations, want 0", n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := back.Tree(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Errorf("Tree: %.0f allocations, want 3", allocs)
	}
	// 5216 bytes when every key was a substring of a string copy of the
	// VO and every node had its own key and value arrays; 2896 when every
	// pruned sibling was a node and every internal node a slab and a
	// pointer array of its own.
	const runs, parentBytes = 100, 2896
	perRun := allocated(func() {
		for i := 0; i < runs; i++ {
			if _, err := back.Tree(); err != nil {
				t.Fatal(err)
			}
		}
	}) / runs
	if perRun > parentBytes*4/10 {
		t.Errorf("Tree: %d bytes per run, want at most %d", perRun, parentBytes*4/10)
	}
	t.Logf("Tree: %.0f allocations, %d bytes for %d nodes and digests", allocs, perRun, nodes)
}

// TestVOTreeCountsTooSmall: counts that fall short of the bytes — which
// neither Recording.VO nor a scan produces — fail closed in the
// decoder instead of reaching past a slab.
func TestVOTreeCountsTooSmall(t *testing.T) {
	_, _, upd := goldenVOs(t)
	if _, err := upd.Tree(); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*VO{
		"one node short": {enc: upd.enc, nodes: upd.nodes - 1, digests: upd.digests + 1},
		"one slot short": {enc: upd.enc, nodes: upd.nodes, digests: upd.digests - 1},
		"no counts":      {enc: upd.enc},
	} {
		if _, err := v.Tree(); !errors.Is(err, ErrMalformedVO) {
			t.Errorf("%s: Tree = %v, want ErrMalformedVO", name, err)
		}
		if _, _, err := v.Begin(); !errors.Is(err, ErrMalformedVO) {
			t.Errorf("%s: Begin = %v, want ErrMalformedVO", name, err)
		}
	}
}

// TestVOPrunedRoot: a VO that prunes the root is a tree of one digest
// slot. Its root digest is that digest, every operation that needs a
// node is ErrPruned — through the tree and through a replay — and
// neither CheckInvariants nor Restore takes it for a tree.
func TestVOPrunedRoot(t *testing.T) {
	d := digest.OfBytes(digest.DomainLeaf, []byte("the whole tree"))
	v, err := ViewVO(voOf(4, prunedNode(d)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := v.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if tr.RootDigest() != d {
		t.Fatalf("root digest %s, want %s", tr.RootDigest().Short(), d.Short())
	}
	if h := tr.Height(); h != -1 {
		t.Errorf("Height = %d, want -1", h)
	}
	pruned := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrPruned) {
			t.Errorf("%s = %v, want ErrPruned", what, err)
		}
	}
	all := func(_, _ []byte) bool { return true }
	_, _, err = tr.GetErr("k")
	pruned("Get", err)
	pruned("Range", tr.Range("", "", all))
	_, err = tr.PutErr("k", []byte("v"))
	pruned("Put", err)
	_, _, err = tr.DeleteErr("k")
	pruned("Delete", err)
	rec, root, err := v.Begin()
	if err != nil || root != d {
		t.Fatalf("Begin: root %s, %v", root.Short(), err)
	}
	_, _, err = rec.Get("k")
	pruned("replayed Get", err)
	pruned("replayed Range", rec.Range("", "", all))
	pruned("replayed Put", rec.Put("k", []byte("v")))
	_, err = rec.Delete("k")
	pruned("replayed Delete", err)
	if err := tr.CheckInvariants(); err == nil {
		t.Error("CheckInvariants accepted a pruned root")
	}
	snap := tr.Snapshot()
	snap.size = 1
	if _, err := Restore(snap); !errors.Is(err, ErrMalformedVO) {
		t.Errorf("Restore = %v, want ErrMalformedVO", err)
	}
}

// TestHeightOfVOTree: a tree rebuilt from a VO descends through the
// first child the VO expanded — for the last key, the last child at
// every level — and reports -1 when pruned subtrees hide the leaves.
func TestHeightOfVOTree(t *testing.T) {
	tr := buildTree(t, 0, 1000)
	rec := tr.Record()
	if _, _, err := rec.Get(key(999)); err != nil {
		t.Fatal(err)
	}
	pt, err := rec.VO().Tree()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pt.Height(), tr.Height(); got != want || want < 3 {
		t.Errorf("Height = %d, want %d", got, want)
	}
	d := digest.OfBytes(0, nil)
	v, err := ViewVO(voOf(4, internalNode([]string{"k"}, prunedNode(d), prunedNode(d))))
	if err != nil {
		t.Fatal(err)
	}
	if hidden, err := v.Tree(); err != nil || hidden.Height() != -1 {
		t.Errorf("Height under two pruned children = %v (err %v), want -1", hidden, err)
	}
}
