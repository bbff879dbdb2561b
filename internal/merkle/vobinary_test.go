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
	if err != nil || tree.Order() != 4 || tree.root != nil {
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
	// A child costs at least one input byte and at most a node and a
	// pointer to it, which bounds the allocation per input byte; the
	// lying counts above claim 2^28 and more.
	refusal := func(name string, input []byte, fn func() error) {
		t.Helper()
		var err error
		got := allocated(func() { err = fn() })
		if !errors.Is(err, ErrMalformedVO) {
			t.Errorf("%s: want ErrMalformedVO, got %v", name, err)
		}
		if limit := uint64(2048 + 128*len(input)); got > limit {
			t.Errorf("%s: the refusal allocated %d bytes, limit %d", name, got, limit)
		}
	}
	for name, b := range grammar {
		var v *VO
		refusal(name, b, func() (err error) { v, err = ViewVO(b); return err })
		if v != nil {
			t.Errorf("%s: a rejected input left %x behind", name, v.enc)
		}
		// The same bytes in a VO that never went through ViewVO.
		refusal(name+" (Tree)", b, func() error { _, err := (&VO{enc: b}).Tree(); return err })
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
// accepting a VO costs the VO itself, and a tree costs a slab of
// children and a pointer array per expanded internal node, plus its
// root and the Tree — nothing per leaf, key or value, not even a copy
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
	if n := testing.AllocsPerRun(100, func() { _ = vo.Stats() }); n != 0 {
		t.Errorf("Stats: %.0f allocations, want 0", n)
	}
	pt, err := back.Tree()
	if err != nil {
		t.Fatal(err)
	}
	internal := 0
	for n := range nodesOf(pt) {
		if !n.pruned && !n.leaf {
			internal++
		}
	}
	limit := float64(2*internal + 2)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := back.Tree(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("Tree: %.0f allocations for %d expanded internal nodes, want at most %.0f", allocs, internal, limit)
	}
	// 5216 bytes when every key was a substring of a string copy of the
	// VO and every node had its own key and value arrays.
	const runs, parentBytes = 100, 5216
	perRun := allocated(func() {
		for i := 0; i < runs; i++ {
			if _, err := back.Tree(); err != nil {
				t.Fatal(err)
			}
		}
	}) / runs
	if perRun > parentBytes*6/10 {
		t.Errorf("Tree: %d bytes per run, want at most %d", perRun, parentBytes*6/10)
	}
	t.Logf("Tree: %.0f allocations, %d bytes for %d expanded internal nodes", allocs, perRun, internal)
}
