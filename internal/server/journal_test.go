package server

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
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

// TestOpJournalRecoveryStopsAtGap: a lost frame severs the replayable
// prefix; nothing past the gap may be applied (it would fabricate a
// history whose intermediate op never happened).
func TestOpJournalRecoveryStopsAtGap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	w, err := wal.Open(wal.Options{Dir: path + ".journal"})
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
	d, err := OpenDurable(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, applied, _ := d.Recovered(); applied != 2 {
		t.Fatalf("replayed %d ops, want 2 (stop at the gap)", applied)
	}
	if ctr := d.Server().DB().Ctr(); ctr != 2 {
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
	path := filepath.Join(t.TempDir(), "state.bin")
	dir := path + ".journal"
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewP2(vdb.New(0))
	store := cvs.NewStore()
	applied, pushes, err := replayJournal(dir, fresh, store)
	if !errors.Is(err, ErrJournalFormat) {
		t.Fatalf("replayJournal = %v, want ErrJournalFormat", err)
	}
	if applied != 0 || pushes != 0 || fresh.DB().Ctr() != 0 {
		t.Fatalf("old-format journal reached the server: %d ops, %d pushes, ctr %d", applied, pushes, fresh.DB().Ctr())
	}
	if _, err := OpenDurable(path, 0, 0); !errors.Is(err, ErrJournalFormat) {
		t.Fatalf("OpenDurable over an old-format journal = %v, want ErrJournalFormat", err)
	}
}
