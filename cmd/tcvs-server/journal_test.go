package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
// journaled as the PushContentRequest a client would have sent ahead of
// it, so a crash after the commit was acknowledged replays the blob
// along with the operation. A conflicting commit's blob was stored
// before the conflict was known and is journaled like any other: an
// orphan no record names.
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
	if applied != 3 || pushes != 4 {
		t.Fatalf("replayed %d ops and %d pushes, want 3 ops (one a conflict) and 4 pushes (three carried, one alone)", applied, pushes)
	}
	if db2.Root() != db.Root() {
		t.Fatal("replay did not reproduce the root")
	}
	// Every revision the replayed database records is served by the
	// replayed store, under the hash the record carries.
	for rev, want := range map[uint64][]byte{1: v1, 2: v2} {
		ans, err := db2.ApplyPlain(&cvs.CheckoutOp{Paths: []string{"f"}, Rev: rev})
		if err != nil {
			t.Fatal(err)
		}
		cvs.VisitCheckoutAnswer(ans, func(_ int, st cvs.FileStatus) {
			if got, err := store2.Fetch("f", st.Rev, st.Hash); err != nil || !bytes.Equal(got, want) {
				t.Errorf("f@%d after replay: %q %v", rev, got, err)
			}
		})
	}
	for _, orphan := range [][]byte{stale, lone} {
		if got, err := store2.Fetch("", 0, rcs.HashContent(orphan)); err != nil || !bytes.Equal(got, orphan) {
			t.Fatalf("%q after replay: %q %v", orphan, got, err)
		}
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
	sessions := transport.NewSessionTable()

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
	restored := transport.NewSessionTable()
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

// TestMain lets a test run the real command: with TCVS_TEST_MAIN set,
// the test binary is tcvs-server.
func TestMain(m *testing.M) {
	if os.Getenv("TCVS_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSaveStateIsReproducible: two checkpoints of the same quiesced
// server are the same file, byte for byte — many sessions, replies
// cached out of order — so a snapshot can be compared, deduplicated and
// golden-tested.
func TestSaveStateIsReproducible(t *testing.T) {
	db := vdb.New(0)
	srv := server.NewP2(db)
	store := cvs.NewStore()
	handler := driver.NewHandler(srv, store)
	sessions := transport.NewSessionTable()
	for i, sid := range []uint64{900, 3, 41, 7, 650, 12} {
		for _, seq := range []uint64{3, 1, 2} {
			content := []byte(fmt.Sprintf("s%d-%d\n", sid, seq))
			req := carriedCommit(fmt.Sprintf("f%d", i), content, 0)
			if _, err := sessions.Dispatch(&wire.SessionRequest{SID: sid, Seq: seq, Req: req}, handler); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	var files [3][]byte
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("state%d.bin", i))
		if _, err := saveState(path, srv, store, sessions); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !bytes.Equal(files[i], files[0]) {
			t.Fatalf("checkpoint %d of the same state differs from the first", i+1)
		}
	}
}

// TestOldSnapshotRefusedAtBoot: `tcvs-server -data <snapshot in an
// older format>` — gob-era, or the 0x85 layout of the previous binary —
// exits non-zero naming the format. It must not take the file for a
// first boot — the periodic saver would then overwrite the only copy of
// the repository with an empty one — and leaves it as it was.
func TestOldSnapshotRefusedAtBoot(t *testing.T) {
	for _, fixture := range []string{"gob-p2-snapshot-3commits.snap", "fmt85-p2-snapshot-single.snap"} {
		old, err := os.ReadFile(filepath.Join("..", "..", "internal", "server", "testdata", "golden", fixture))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "old.snap")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-hub", "127.0.0.1:0", "-proto", "2", "-data", path, "-save-interval", "10ms")
		cmd.Env = append(os.Environ(), "TCVS_TEST_MAIN=1")
		done := make(chan struct{})
		var out []byte
		go func() { out, err = cmd.CombinedOutput(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			t.Fatalf("tcvs-server kept running over %s; output %q", fixture, out)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("tcvs-server over %s: err %v, output %q; want exit status 1", fixture, err, out)
		}
		if !strings.Contains(string(out), server.ErrSnapshotFormat.Error()) {
			t.Errorf("tcvs-server over %s does not name the format: %q", fixture, out)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, old) {
			t.Fatalf("the refused snapshot %s changed on disk (err %v)", fixture, err)
		}
		if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
			t.Fatalf("a saver rotated the refused snapshot %s aside (stat: %v)", fixture, err)
		}
	}
}
