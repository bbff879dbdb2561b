package merkle

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
		var back VO
		if err := back.UnmarshalBinary(golden); err != nil {
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
		if again := mustMarshal(t, &back); !bytes.Equal(again, golden) {
			t.Errorf("%s: decode + encode is not the identity", name)
		}
	}
}

// TestVOBinaryThroughGob: gob carries a *VO field as the opaque bytes
// of MarshalBinary — which is how responses, forest legs and journal
// records inherit the format — and leaves a nil VO nil.
func TestVOBinaryThroughGob(t *testing.T) {
	type resp struct {
		Answer []byte
		VO     *VO
	}
	root, _, upd := goldenVOs(t)
	flat := mustMarshal(t, upd)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&resp{Answer: []byte("a"), VO: upd}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), flat) {
		t.Fatal("gob stream does not embed the flat VO encoding")
	}
	var got resp
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	tree, err := got.VO.Tree()
	if err != nil || tree.RootDigest() != root {
		t.Fatalf("VO through gob: root mismatch (err %v)", err)
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&resp{Answer: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	got = resp{}
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil || got.VO != nil {
		t.Fatalf("missing VO decoded as %v (err %v), want nil", got.VO, err)
	}
}

// TestVOBinaryEmptyTree: the VO of an empty tree is the order and one
// absent node, and round-trips to a nil root.
func TestVOBinaryEmptyTree(t *testing.T) {
	b := mustMarshal(t, New(4).Record().VO())
	if !bytes.Equal(b, []byte{4, 0}) {
		t.Fatalf("empty-tree VO = %x, want 0400", b)
	}
	var v VO
	if err := v.UnmarshalBinary(b); err != nil || v.Order != 4 || v.Root != nil {
		t.Fatalf("decoded %+v, err %v", v, err)
	}
}

// TestVOBinaryHostileInput: everything the decoder refuses is
// ErrMalformedVO, and a lying count is refused before it can size an
// allocation.
func TestVOBinaryHostileInput(t *testing.T) {
	_, read, _ := goldenVOs(t)
	honest := mustMarshal(t, read)
	deep := []byte{4}
	for i := 0; i < maxVODepth+2; i++ {
		deep = append(deep, voInternal, 0) // no keys, one child
	}
	deep = append(deep, voLeaf, 0)
	cases := map[string][]byte{
		"empty":                  {},
		"order only":             {4},
		"trailing byte":          append(append([]byte(nil), honest...), 0),
		"truncated":              honest[:len(honest)-1],
		"unknown node kind":      {4, 9},
		"non-minimal order":      {0x84, 0x00, 0},
		"huge order":             {0xff, 0xff, 0xff, 0xff, 0x7f, 0},
		"short digest":           {4, voPruned, 1, 2, 3},
		"key count beyond input": {4, voLeaf, 0xff, 0xff, 0x03},
		"kid count beyond input": {4, voInternal, 3, 0, 0, 0, voLeaf, 0},
		"key bytes beyond input": {4, voLeaf, 1, 0x7f, 'k'},
		"val bytes beyond input": {4, voLeaf, 1, 1, 'k', 0x7f, 'v'},
		"too deep":               deep,
	}
	for name, b := range cases {
		var v VO
		err := v.UnmarshalBinary(b)
		if !errors.Is(err, ErrMalformedVO) {
			t.Errorf("%s: want ErrMalformedVO, got %v", name, err)
		}
		if v.Root != nil || v.Order != 0 {
			t.Errorf("%s: a rejected input left %+v behind", name, v)
		}
	}
	// A structurally odd but well-formed encoding decodes; judging the
	// shape stays VO.Tree's job.
	var v VO
	if err := v.UnmarshalBinary([]byte{4, voInternal, 1, 1, 'k', voAbsent, voLeaf, 0}); err != nil {
		t.Fatalf("absent child: %v", err)
	}
	if _, err := v.Tree(); !errors.Is(err, ErrMalformedVO) || !strings.Contains(err.Error(), "nil child") {
		t.Fatalf("Tree on an absent child: %v", err)
	}
}

// TestVOBinaryRefusesUnencodableShapes: the in-memory shapes the
// grammar has no spelling for are refused by the encoder, the same
// ones VO.Tree refuses.
func TestVOBinaryRefusesUnencodableShapes(t *testing.T) {
	d := digest.OfBytes(0, nil)
	for name, vo := range map[string]*VO{
		"nil VO":            nil,
		"negative order":    {Order: -1},
		"pruned w/ content": {Order: 4, Root: &VONode{Pruned: true, Digest: d, Keys: []string{"k"}}},
		"leaf shape":        {Order: 4, Root: &VONode{Leaf: true, Keys: []string{"k"}}},
		"internal shape":    {Order: 4, Root: &VONode{Keys: []string{"k"}, Kids: []*VONode{{Pruned: true, Digest: d}}}},
	} {
		if b, err := vo.MarshalBinary(); !errors.Is(err, ErrMalformedVO) {
			t.Errorf("%s: MarshalBinary = %s, %v; want ErrMalformedVO", name, hex.EncodeToString(b), err)
		}
	}
}
