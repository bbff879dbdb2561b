package merkle

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestTreeHeapPerRecord bounds what a tree built by Put keeps alive,
// in bytes and in heap objects, the number the garbage collector scans.
// A record is its key and value inside its leaf's one encoding, plus its
// share of the nodes, their encodings and child slots: 62 bytes and
// 0.7 objects, before and after the overwrites (bounds 15 % above the
// 60 bytes of when a child slot was a bare pointer rather than a node
// or a digest, and one object). A string and a slice per record plus
// key and value arrays per node, as nodes were stored before, were 114
// bytes and 2.9 objects; windows onto split arrays more than doubled
// the bytes again.
func TestTreeHeapPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-record tree")
	}
	const records = 100_000
	heap := func() (bytes, objects uint64) {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc, m.HeapObjects
	}
	beforeBytes, beforeObjects := heap()
	perRecord := func(phase string, tr *Tree) {
		t.Helper()
		tr.RootDigest()
		b, o := heap()
		runtime.KeepAlive(tr)
		gotBytes := float64(b-beforeBytes) / records
		gotObjects := float64(o-beforeObjects) / records
		t.Logf("%s: %.0f bytes and %.2f objects of live heap per record", phase, gotBytes, gotObjects)
		if gotBytes > 69 {
			t.Errorf("%s: %.0f bytes of live heap per record, want at most 69", phase, gotBytes)
		}
		if gotObjects > 1 {
			t.Errorf("%s: %.2f heap objects per record, want at most 1", phase, gotObjects)
		}
	}
	tr := New(0)
	for i := 0; i < records; i++ {
		tr = tr.Put(key(i), val(i))
	}
	perRecord("after 100k inserts", tr)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < records; i++ {
		tr = tr.Put(key(rng.Intn(records)), val(i))
	}
	perRecord("after 100k overwrites", tr)
}
