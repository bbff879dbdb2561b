package server

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wal"
	"trustedcvs/internal/wire/wiretest"
)

func journalOp(i int) *core.OpRequest {
	return &core.OpRequest{
		User: sig.UserID(i % 2),
		Op:   &vdb.WriteOp{Puts: []vdb.KV{{Key: string(rune('a' + i)), Val: []byte{byte(i)}}}},
	}
}

// TestOpJournalRecoveryReplay: every op applied through the journaled
// server is re-applied on a fresh server from the journal alone,
// reproducing the exact head.
func TestOpJournalRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenOpJournal(dir, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := WithOpJournal(NewP2(vdb.New(0)), j)
	for i := 0; i < 10; i++ {
		if _, err := srv.HandleOp(journalOp(i)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := j.Err(); err != nil {
		t.Fatalf("journal degraded: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := NewP2(vdb.New(0))
	applied, _, err := ReplayOpJournal(dir, fresh, cvs.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if applied != 10 {
		t.Fatalf("replayed %d ops, want 10", applied)
	}
	if got, want := fresh.DB().Root(), srv.DB().Root(); got != want {
		t.Fatalf("replayed root %s != live root %s", got.Short(), want.Short())
	}
}

// TestOpJournalRecoveryFromSnapshot: replay skips everything a
// restored snapshot already covers and re-applies only the tail.
func TestOpJournalRecoveryFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenOpJournal(dir, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := WithOpJournal(NewP2(vdb.New(0)), j)
	for i := 0; i < 10; i++ {
		if _, err := srv.HandleOp(journalOp(i)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A "restored snapshot" that saw the first 6 ops.
	restored := NewP2(vdb.New(0))
	for i := 0; i < 6; i++ {
		if _, err := restored.HandleOp(journalOp(i)); err != nil {
			t.Fatalf("snapshot op %d: %v", i, err)
		}
	}
	applied, _, err := ReplayOpJournal(dir, restored, cvs.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if applied != 4 {
		t.Fatalf("replayed %d ops, want 4", applied)
	}
	if got, want := restored.DB().Root(), srv.DB().Root(); got != want {
		t.Fatalf("recovered root %s != live root %s", got.Short(), want.Short())
	}
}

// TestOpJournalRecoveryReplaysPushes: content pushes recorded in the
// journal are re-pushed into the store on replay — an acked commit's
// blob must survive the same crash its authenticated record does —
// and replaying a push the restored snapshot already holds is a no-op
// (the store is a content-addressed map).
func TestOpJournalRecoveryReplaysPushes(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenOpJournal(dir, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := WithOpJournal(NewP2(vdb.New(0)), j)
	live := cvs.NewStore()
	push := func(path string, rev uint64, content string) {
		if err := live.Push(path, rev, []byte(content)); err != nil {
			t.Fatalf("push %s@%d: %v", path, rev, err)
		}
		j.RecordPush(&core.PushContentRequest{Path: path, Rev: rev, Content: []byte(content)}, srv.DB().Ctr())
	}
	push("a.txt", 1, "one")
	if _, err := srv.HandleOp(journalOp(0)); err != nil {
		t.Fatal(err)
	}
	push("a.txt", 2, "two")
	push("b.txt", 1, "bee")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A "restored snapshot" of the store that already saw a.txt@1.
	store := cvs.NewStore()
	if err := store.Push("a.txt", 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	fresh := NewP2(vdb.New(0))
	applied, pushes, err := ReplayOpJournal(dir, fresh, store)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || pushes != 3 {
		t.Fatalf("replayed %d ops / %d pushes, want 1 / 3", applied, pushes)
	}
	for _, want := range []struct {
		path    string
		rev     uint64
		content string
	}{{"a.txt", 1, "one"}, {"a.txt", 2, "two"}, {"b.txt", 1, "bee"}} {
		got, err := store.Fetch(want.path, want.rev, rcs.HashContent([]byte(want.content)))
		if err != nil {
			t.Fatalf("after replay, fetch %s@%d: %v", want.path, want.rev, err)
		}
		if string(got) != want.content {
			t.Fatalf("after replay, %s@%d = %q, want %q", want.path, want.rev, got, want.content)
		}
	}
}

// TestOpJournalRecoveryStopsAtGap: a lost frame severs the replayable
// prefix; nothing past the gap may be applied (it would fabricate a
// history whose intermediate op never happened).
func TestOpJournalRecoveryStopsAtGap(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []uint64{1, 2, 4} { // 3 is missing
		entry, err := appendEntry(nil, g, journalOp(int(g-1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(0, entry); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := NewP2(vdb.New(0))
	applied, _, err := ReplayOpJournal(dir, fresh, cvs.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("replayed %d ops, want 2 (stop at the gap)", applied)
	}
	if ctr := fresh.DB().Ctr(); ctr != 2 {
		t.Fatalf("head ctr %d, want 2", ctr)
	}
}

// TestOpJournalEntryGolden pins the journal form of both entry kinds,
// and that what decodes is what was journaled.
func TestOpJournalEntryGolden(t *testing.T) {
	entries := map[string]journalEntry{
		"journal-op":   {G: 300, Req: journalOp(3)},
		"journal-push": {Push: &core.PushContentRequest{Path: "src/main.go", Rev: 2, Content: []byte("package main\n")}},
	}
	for name, e := range entries {
		var req any = e.Req
		if e.Push != nil {
			req = e.Push
		}
		b, err := appendEntry(nil, e.G, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wiretest.Bytes(t, filepath.Join("testdata/golden", name+".bin"), b)
		got, err := decodeEntry(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("%s: round trip\n got %#v\nwant %#v", name, got, e)
		}
		if _, err := decodeEntry(append(b, 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
	// Anything but a request in the request's place is refused.
	if bad, err := appendEntry(nil, 1, &core.OKResponse{}); err != nil {
		t.Fatal(err)
	} else if _, err := decodeEntry(bad); err == nil {
		t.Error("a response journaled as a request was accepted")
	}
}

// TestOldFormatOpJournalRefused: a journal segment written by the
// gob-era binary (three applied ops and a content push) must stop
// recovery with the typed format error before a single entry is
// applied — not be misparsed, and not be silently skipped, which would
// bring the server back up behind its acked head.
func TestOldFormatOpJournalRefused(t *testing.T) {
	seg, err := os.ReadFile("testdata/golden/gob-op-journal-seg-0000000000000001.wal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewP2(vdb.New(0))
	store := cvs.NewStore()
	applied, pushes, err := ReplayOpJournal(dir, fresh, store)
	if !errors.Is(err, ErrJournalFormat) {
		t.Fatalf("ReplayOpJournal = %v, want ErrJournalFormat", err)
	}
	if applied != 0 || pushes != 0 || fresh.DB().Ctr() != 0 {
		t.Fatalf("old-format journal reached the server: %d ops, %d pushes, ctr %d", applied, pushes, fresh.DB().Ctr())
	}
}
