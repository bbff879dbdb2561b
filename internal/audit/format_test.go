package audit

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wal"
)

// goldenOldJournal is one journal segment written at the commit before
// answers and VOs left gob: three honest put records, epoch 0, each a
// bare gob stream of Record with a gob-struct VO and a gob answer.
const goldenOldJournal = "testdata/golden/pre-binary-journal-seg-0000000000000001.wal"

func oldJournalDir(t *testing.T) string {
	t.Helper()
	seg, err := os.ReadFile(goldenOldJournal)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOldFormatJournalRefusedAtOpen is the zero-false-alarm pin for the
// format bump: an honest server's records from the previous binary
// must be refused with the typed error when the journal is opened,
// not replayed into a BadAnswer conviction.
func TestOldFormatJournalRefusedAtOpen(t *testing.T) {
	dir := oldJournalDir(t)
	u := proto2.NewUser(1, vdb.New(0).Root(), 1<<20)
	a, err := New(Config{User: u, Epoch: 4, Users: 1, Publish: func(Report) error { return nil }, WALDir: dir})
	if err == nil {
		a.Stop()
		t.Fatalf("old-format journal opened; failure recorded: %v", a.Err())
	}
	if !errors.Is(err, ErrJournalFormat) {
		t.Fatalf("New = %v, want ErrJournalFormat", err)
	}
}

// TestOldFormatRecordFailsGobTypeCheck shows what a mixed client/server
// pair sees on the wire, using the same golden bytes: the old stream
// describes VO as a struct, this binary's VO is an opaque
// BinaryMarshaler, and gob refuses the pairing outright instead of
// decoding something plausible.
func TestOldFormatRecordFailsGobTypeCheck(t *testing.T) {
	frames := 0
	err := wal.Replay(oldJournalDir(t), func(fr wal.Record) error {
		frames++
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(fr.Payload)).Decode(&rec); err == nil {
			t.Errorf("frame %d: old-format record decoded without error", frames)
		} else {
			t.Logf("frame %d: %v", frames, err)
		}
		return nil
	})
	if err != nil || frames != 3 {
		t.Fatalf("replay: %d frames, err %v", frames, err)
	}
}

// TestRecordFormatMarker pins the marker byte and that a current record
// round-trips behind it.
func TestRecordFormatMarker(t *testing.T) {
	op := put("k", "v")
	b, err := encodeRecord(Record{Op: op})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x82 {
		t.Fatalf("marker %#x, want 0x82", b[0])
	}
	rec, err := decodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := rec.Op.(*vdb.WriteOp); !ok || w.Puts[0].Key != "k" {
		t.Fatalf("round trip: %#v", rec.Op)
	}
	if _, err := decodeRecord(nil); !errors.Is(err, ErrJournalFormat) {
		t.Fatalf("empty record: %v", err)
	}
}
