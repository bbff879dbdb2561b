package driver

import (
	"bytes"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// TestInprocCheckoutOwnsItsContent: the handler serves content from the
// store uncopied, and the in-process transport detaches every response
// it returns, so a user who modifies checked-out content — a rider or a
// plain fetch — never reaches the store: the next checkout returns the
// original bytes and every stored blob still re-hashes clean.
func TestInprocCheckoutOwnsItsContent(t *testing.T) {
	rig := newRiderRig(t, "p2", nil)
	original := []byte("the committed content\n")
	if _, err := rig.repo.Commit(map[string][]byte{"f": append([]byte(nil), original...)}, "", nil); err != nil {
		t.Fatal(err)
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 'X'
		}
	}
	for i := 0; i < 2; i++ {
		got, err := rig.repo.Checkout("f")
		if err != nil || !bytes.Equal(got["f"], original) {
			t.Fatalf("checkout %d: %q %v", i+1, got["f"], err)
		}
		scribble(got["f"])
	}
	for i := 0; i < 2; i++ {
		resp, err := rig.conn.Call(&core.FetchContentRequest{Path: "f", Rev: 1, Hash: rcs.HashContent(original)})
		if err != nil {
			t.Fatal(err)
		}
		content := resp.(*core.ContentResponse).Content
		if !bytes.Equal(content, original) {
			t.Fatalf("fetch %d: %q", i+1, content)
		}
		scribble(content)
	}
	if _, err := rig.store.Snapshot(); err != nil {
		t.Fatalf("a user's edit reached the store: %v", err)
	}
}

// TestSessionReplayKeepsItsRiders: the session table caches a
// checkout's response, riders included, for a whole session window,
// while the connection decodes later requests into the frame buffer
// the checkout arrived in. A retry of the checkout after other
// requests — a carried commit of other content, a push — returns the
// original riders and answer.
func TestSessionReplayKeepsItsRiders(t *testing.T) {
	db := vdb.New(0)
	store := cvs.NewStore()
	handler := NewHandler(server.NewP2(db), store)
	original := bytes.Repeat([]byte("original "), 40)
	commit := func(content []byte) *core.RiderRequest {
		op := &cvs.CommitOp{Files: []cvs.CommitFile{{Path: "f", Hash: rcs.HashContent(content)}}, Author: "user0"}
		return &core.RiderRequest{OpRequest: core.OpRequest{User: 0, Op: op}, Blobs: [][]byte{content}}
	}
	if _, err := transport.NewInproc(handler).Call(commit(original)); err != nil {
		t.Fatal(err)
	}
	ts, err := transport.ListenOpts("127.0.0.1:0", handler, transport.Options{Sessions: transport.NewSessionTable()})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	caller, err := transport.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	checkout := &wire.SessionRequest{SID: 7, Seq: 1, Req: &core.RiderRequest{
		OpRequest: core.OpRequest{User: 0, Op: &cvs.CheckoutOp{Paths: []string{"f"}}}, Want: true,
	}}
	call := func(req any) *core.RiderResponse {
		t.Helper()
		resp, err := caller.Call(req)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := resp.(*core.RiderResponse)
		if !ok {
			t.Fatalf("response %T", resp)
		}
		return r
	}
	first := call(checkout)
	if len(first.Blobs) != 1 || !bytes.Equal(first.Blobs[0], original) {
		t.Fatalf("checkout carried %q", first.Blobs)
	}
	other := bytes.Repeat([]byte("OTHER-CONTENT "), 40)
	call(&wire.SessionRequest{SID: 7, Seq: 2, Req: commit(other)})
	if _, err := caller.Call(&wire.SessionRequest{SID: 7, Seq: 3, Req: &core.PushContentRequest{Content: bytes.Repeat([]byte{0xEE}, 600)}}); err != nil {
		t.Fatal(err)
	}
	replay := call(checkout)
	if len(replay.Blobs) != 1 || !bytes.Equal(replay.Blobs[0], original) {
		t.Fatalf("the replayed checkout carries %q, want the original", replay.Blobs)
	}
	want, got := first.Resp.(*core.OpResponseII), replay.Resp.(*core.OpResponseII)
	if !bytes.Equal(got.Answer, want.Answer) || got.Ctr != want.Ctr {
		t.Fatalf("the replayed checkout answers %x at %d, the first %x at %d", got.Answer, got.Ctr, want.Answer, want.Ctr)
	}
	if db.Ctr() != 3 {
		t.Fatalf("%d operations applied, want the commit, the checkout and the second commit", db.Ctr())
	}
}
