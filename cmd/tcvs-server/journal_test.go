package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

func carriedCommit(path string, content []byte, base uint64) *core.RiderRequest {
	return &core.RiderRequest{
		OpRequest: core.OpRequest{
			User: 0,
			Op:   &cvs.CommitOp{Files: []cvs.CommitFile{{Path: path, Hash: rcs.HashContent(content), BaseRev: base}}, Author: "alice"},
		},
		Blobs: [][]byte{content},
	}
}

// TestJournalReplaysCarriedPush: content that rode with a commit is
// journaled as the PushContentRequest a client would have sent after
// it, so a crash after the commit was acknowledged replays the blob
// along with the operation; a conflicting commit journals no push.
func TestJournalReplaysCarriedPush(t *testing.T) {
	dir := t.TempDir()
	journal, err := server.OpenOpJournal(dir, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := vdb.New(0)
	srv := server.WithOpJournal(server.NewP2(db), journal)
	handler := journalPushes(driver.NewHandler(srv, cvs.NewStore()), journal, srv)

	v1, v2, stale := []byte("first\n"), []byte("second\n"), []byte("stale\n")
	for _, req := range []*core.RiderRequest{
		carriedCommit("f", v1, 0),
		carriedCommit("f", v2, 1),
		carriedCommit("f", stale, 1), // conflicts: head is 2
	} {
		if _, err := handler(req); err != nil {
			t.Fatal(err)
		}
	}
	// A push that travelled on its own is journaled as before.
	lone := []byte("pushed alone\n")
	if _, err := handler(&core.PushContentRequest{Path: "g", Rev: 1, Content: lone}); err != nil {
		t.Fatal(err)
	}
	if err := journal.Err(); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: nothing but the journal survives.
	db2 := vdb.New(0)
	store2 := cvs.NewStore()
	applied, pushes, err := server.ReplayOpJournal(dir, server.NewP2(db2), store2)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 || pushes != 3 {
		t.Fatalf("replayed %d ops and %d pushes, want 3 ops (one a conflict) and 3 pushes (two carried, one alone)", applied, pushes)
	}
	if db2.Root() != db.Root() {
		t.Fatal("replay did not reproduce the root")
	}
	for rev, want := range map[uint64][]byte{1: v1, 2: v2} {
		if got, err := store2.FetchRev("f", rev); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("f@%d after replay: %q %v", rev, got, err)
		}
	}
	if _, err := store2.Fetch("f", 0, rcs.HashContent(stale)); err == nil {
		t.Fatal("the conflicting commit's blob was journaled")
	}
	if got, err := store2.FetchRev("g", 1); err != nil || !bytes.Equal(got, lone) {
		t.Fatalf("g@1 after replay: %q %v", got, err)
	}
}

// TestSnapshotKeepsCachedRiderResponse: the session table caches what
// the handler returned, so a checkpoint taken after a carried checkout
// holds a RiderResponse behind an interface field; it must encode, and
// a retry against the restored table must replay it, riders and all.
func TestSnapshotKeepsCachedRiderResponse(t *testing.T) {
	db := vdb.New(0)
	srv := server.NewP2(db)
	store := cvs.NewStore()
	handler := driver.NewHandler(srv, store)
	sessions := transport.NewSessionTable(0)

	content := []byte("cached with its rider\n")
	if _, err := sessions.Dispatch(&wire.SessionRequest{SID: 7, Seq: 1, Req: carriedCommit("f", content, 0)}, handler); err != nil {
		t.Fatal(err)
	}
	checkout := &wire.SessionRequest{SID: 7, Seq: 2, Req: &core.RiderRequest{
		OpRequest: core.OpRequest{User: 0, Op: &cvs.CheckoutOp{Paths: []string{"f"}}},
		Want:      true,
	}}
	first, err := sessions.Dispatch(checkout, handler)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "state.bin")
	if _, err := saveState(path, srv, store, sessions); err != nil {
		t.Fatalf("checkpoint with a cached rider response: %v", err)
	}
	snap, _, err := server.LoadP2Auto(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := transport.NewSessionTable(0)
	restored.RestoreSessions(snap.Sessions)
	again, err := restored.Dispatch(checkout, func(any) (any, error) {
		t.Fatal("the retry reached the handler instead of the restored cache")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := again.(*core.RiderResponse)
	if !ok || len(rr.Blobs) != 1 || !bytes.Equal(rr.Blobs[0], content) {
		t.Fatalf("replayed %#v, want the rider response with its blob", again)
	}
	want := first.(*core.RiderResponse).Resp.(*core.OpResponseII)
	if got, ok := rr.Resp.(*core.OpResponseII); !ok || !bytes.Equal(got.Answer, want.Answer) || got.Ctr != want.Ctr {
		t.Fatalf("replayed protocol response %#v differs from the original", rr.Resp)
	}
}
