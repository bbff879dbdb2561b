package merkle

import (
	"fmt"
	"sync"
	"testing"
)

// TestDigestMemoizedAcrossOps pins the memoization property the
// pipelined server relies on: after one full root computation, a
// single-key update only rehashes the root-to-leaf path it rewrote —
// every unchanged subtree serves its digest from the cache.
func TestDigestMemoizedAcrossOps(t *testing.T) {
	tr := New(0)
	const n = 4096
	for i := 0; i < n; i++ {
		tr = tr.Put(fmt.Sprintf("key-%06d", i), []byte("v"))
	}
	tr.RootDigest() // warm every node's cache
	warm := hashCount.Load()

	for i := 0; i < 10; i++ {
		tr = tr.Put(fmt.Sprintf("key-%06d", i*37), []byte("new"))
		tr.RootDigest()
	}
	rehashed := hashCount.Load() - warm

	// Each update rewrites one root-to-leaf path: depth is ~log_m(n)
	// (4 levels here, order 8); allow slack for splits. 4096 records
	// span >500 nodes, so memoization failure would blow way past this.
	const maxPerOp = 12
	if rehashed > 10*maxPerOp {
		t.Fatalf("10 single-key updates rehashed %d nodes; memoization across ops is broken", rehashed)
	}

	// Cached digests must also be safe to read concurrently while
	// sibling goroutines force computation on shared cold nodes (the
	// post-lock VO build does exactly this). Run with -race.
	cold := tr
	for i := 0; i < 32; i++ {
		cold = cold.Put(fmt.Sprintf("key-%06d", i*101), []byte("cold"))
	}
	var wg sync.WaitGroup
	got := make([]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = cold.RootDigest().Short() // races to fill the cold caches
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		if got[g] != got[0] {
			t.Fatalf("concurrent root digest mismatch: %s vs %s", got[g], got[0])
		}
	}
}

// TestMemoPublicationUnderPipelinedFinish is the pipelined server's
// shape: one writer keeps putting into the persistent tree while
// several goroutines build the VOs and root digests of the versions it
// left behind, all of them cold and structurally shared. The memo rule
// (one CompareAndSwap winner writes the in-node digest and publishes it
// with a Store; everyone else returns what they computed) must make
// that race-free — run with -race — and every goroutine must see the
// digests a sequential run computes.
func TestMemoPublicationUnderPipelinedFinish(t *testing.T) {
	const versions, finishers = 200, 4
	base := New(0)
	for i := 0; i < 2000; i++ {
		base = base.Put(fmt.Sprintf("key-%06d", i), []byte("v"))
	}
	step := func(rec *Recording, i int) error {
		return rec.Put(fmt.Sprintf("key-%06d", (i*131)%2500), []byte(fmt.Sprintf("v%d", i)))
	}

	// Every finisher gets every version; the channels hold them all, so
	// the writer never waits for a finisher.
	feeds := make([]chan *Recording, finishers)
	roots := make([][]string, finishers)
	var wg sync.WaitGroup
	for g := range feeds {
		feeds[g] = make(chan *Recording, versions)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rec := range feeds[g] {
				pre, post := rec.base.RootDigest(), rec.Tree().RootDigest()
				i := len(roots[g])
				got, err := rec.VO().Replay(pre, func(pt *Tree) (*Tree, error) {
					r := pt.Record()
					err := step(r, i)
					return r.Tree(), err
				})
				if err != nil || got != post {
					t.Errorf("finisher %d, version %d: replay gave %s, %v; want %s", g, i, got.Short(), err, post.Short())
				}
				roots[g] = append(roots[g], post.Short())
			}
		}(g)
	}
	cur := base
	for i := 0; i < versions; i++ {
		rec := cur.Record()
		if err := step(rec, i); err != nil {
			t.Fatal(err)
		}
		cur = rec.Tree()
		for _, feed := range feeds {
			feed <- rec
		}
	}
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()

	// The same history on a private copy, one goroutine.
	seq, err := Restore(base.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < versions; i++ {
		rec := seq.Record()
		if err := step(rec, i); err != nil {
			t.Fatal(err)
		}
		seq = rec.Tree()
		for g := range roots {
			if roots[g][i] != seq.RootDigest().Short() {
				t.Fatalf("finisher %d saw root %s at version %d, sequential run %s", g, roots[g][i], i, seq.RootDigest().Short())
			}
		}
	}
}
