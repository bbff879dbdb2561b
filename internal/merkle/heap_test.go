package merkle

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestTreeHeapPerRecord bounds what a tree built by Put keeps alive.
// A split used to hand each half a window onto the overfull node's
// arrays, so the other half's slots stayed reachable for as long as
// either window did — and an overwrite, which shares its predecessor's
// keys array, would have carried such a window forward indefinitely.
// Each half owning exactly sized arrays keeps a 100k-record tree near
// the size of its records, before and after the overwrites.
func TestTreeHeapPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-record tree")
	}
	const records = 100_000
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	perRecord := func(phase string, tr *Tree) {
		t.Helper()
		tr.RootDigest()
		got := float64(heap()-before) / records
		runtime.KeepAlive(tr)
		t.Logf("%s: %.0f bytes of live heap per record", phase, got)
		// A record is a 10-byte key, a ~9-byte value and their two
		// slice headers (40 bytes) in a leaf between half and entirely
		// full, plus its share of the nodes: about 115 bytes. Windows
		// onto split arrays more than doubled that.
		if got > 150 {
			t.Errorf("%s: %.0f bytes of live heap per record, want at most 150", phase, got)
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
