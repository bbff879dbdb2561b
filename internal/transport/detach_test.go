package transport_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"trustedcvs/internal/core"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// TestSessionCacheHoldsNoTree: a server's VO writes itself from the
// pre-state it was cut from, an old version of the whole database tree;
// the session table keeps its response for a whole session window, so
// it caches the response with the VO's bytes and nothing of the tree.
// The pre-state is collected while the response sits in the cache —
// its Tree's finalizer runs and the heap gives its records back — and
// the cached response still writes the frame the live one wrote.
func TestSessionCacheHoldsNoTree(t *testing.T) {
	pre := merkle.New(0)
	for i := 0; i < 50_000; i++ {
		pre = pre.Put(fmt.Sprintf("key-%06d", i), []byte("a value of thirty-two bytes, yes"))
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(pre, func(*merkle.Tree) { close(collected) })
	rec := pre.Record()
	if err := rec.Put("key-000017", []byte("new")); err != nil {
		t.Fatal(err)
	}
	ans, err := vdb.EncodeAnswer(vdb.WriteAnswer{Put: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp := &core.OpResponseII{Answer: ans, VO: rec.VO(), Ctr: 7, Last: 2}
	var live bytes.Buffer
	if err := wire.NewEncoder(&live).Encode(resp); err != nil {
		t.Fatal(err)
	}

	tbl := transport.NewSessionTable()
	req := &wire.SessionRequest{SID: 1, Seq: 1, Req: "op"}
	handler := func(any) (any, error) { return resp, nil }
	if _, err := tbl.Dispatch(req, handler); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	withTree := heap()
	pre, rec, resp, handler = nil, nil, nil, nil
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the pre-state tree outlived its VO's reply in the session cache")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if without := heap(); without > withTree/2 {
		t.Errorf("heap %d B with the tree, %d B after dropping it: the cache still holds its records", withTree, without)
	}

	cached, err := tbl.Dispatch(req, func(any) (any, error) {
		t.Fatal("a retry re-applied the operation")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var replay bytes.Buffer
	if err := wire.NewEncoder(&replay).Encode(cached); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay.Bytes(), live.Bytes()) {
		t.Fatalf("the cached response writes\n%x\nthe live one wrote\n%x", replay.Bytes(), live.Bytes())
	}
}
