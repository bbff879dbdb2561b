package merkle

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/digest"
)

// Root digests pinned as constants. Every other golden compares against
// a root computed in the same test run, which a layout change that
// altered both the hashing and the building of a node the same way
// would pass; these do not move unless the hash preimage does.
var (
	pinnedRoots = map[int][]string{
		3: {
			"7b3461c93819932018c276b0c5b38d6672dd24c718b23ab57a3f123cb71fc955",
			"ab6fb5d7e203e3059c4d4155a710ac3ac4e7012d897c1169b52fdd59193e8cc8",
			"279dec74b1a6db96a1ced097c17fddd05bb3777ee23e7af9fe596fd1bc3a6628",
			"daa11e54fd96a57089870c468d375b2168f3cc43dd0c10524ad7bd355a09cb7e",
		},
		8: {
			"3037676b9dd193d476ad32d338c4be404694e143ca95f94a2d1c405cc0496468",
			"fb37a458e467b9f51c7bef941e64f17cd1da85872643497a57b1945d654a52a2",
			"e3687e27ea75491998ac76146d13600dd6554950c1724e133d9e9484266ee7b4",
			"02ea90794e8c3cd5932f3e1bb08f48e031dd7070c5fac6fc731387ece195e180",
		},
	}
	// pinnedGoldenRoot is the root of goldenVOs' tree, which both
	// testdata/golden VOs prove against.
	pinnedGoldenRoot = "1a26ed09b1782a396e7d27c133e603be8f6bc8326cd8329e49047152244261ab"
)

// preimageBuild drives one deterministic history at the given order and
// returns the root digest after each phase: random inserts (leaf and
// internal splits, root growth), overwrites, deletes down to five
// records (borrows from either side, merges, root collapse) and inserts
// again.
func preimageBuild(t *testing.T, order int) []digest.Digest {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(order)))
	const n = 300
	tr := New(order)
	var roots []digest.Digest
	for _, i := range rng.Perm(n) {
		tr = tr.Put(fmt.Sprintf("k%04d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	grown := tr.Height()
	roots = append(roots, tr.RootDigest())
	for _, i := range rng.Perm(n)[:n/2] {
		tr = tr.Put(fmt.Sprintf("k%04d", i), []byte(fmt.Sprintf("w%d-%s", i, "overwritten")))
	}
	roots = append(roots, tr.RootDigest())
	for _, i := range rng.Perm(n)[:n-5] {
		var found bool
		if tr, found = tr.Delete(fmt.Sprintf("k%04d", i)); !found {
			t.Fatalf("order %d: k%04d missing", order, i)
		}
	}
	if tr.Height() >= grown || tr.Len() != 5 {
		t.Fatalf("order %d: height %d after deletes (was %d), %d records", order, tr.Height(), grown, tr.Len())
	}
	roots = append(roots, tr.RootDigest())
	for i := n; i < n+40; i++ {
		tr = tr.Put(fmt.Sprintf("k%04d", i), []byte{byte(i)})
	}
	roots = append(roots, tr.RootDigest())
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return roots
}

func TestPinnedRootDigests(t *testing.T) {
	for order, want := range pinnedRoots {
		for phase, got := range preimageBuild(t, order) {
			if got.String() != want[phase] {
				t.Errorf("order %d, phase %d: root %s, pinned %s: the node hash preimage changed", order, phase, got, want[phase])
			}
		}
	}
	root, read, upd := goldenVOs(t)
	if root.String() != pinnedGoldenRoot {
		t.Errorf("golden tree: root %s, pinned %s", root, pinnedGoldenRoot)
	}
	for name, vo := range map[string]*VO{"read.vo": read, "update.vo": upd} {
		for _, enc := range [][]byte{mustMarshal(t, vo), readGolden(t, name)} {
			v, err := ViewVO(enc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tree, err := v.Tree()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := tree.RootDigest().String(); got != pinnedGoldenRoot {
				t.Errorf("%s: VO.Tree hashes to %s, pinned %s", name, got, pinnedGoldenRoot)
			}
		}
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
