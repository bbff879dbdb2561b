package audit

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wal"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/wire/wiretest"
)

// Journal segments written by earlier binaries, three honest put
// records each, epoch 0: one from before answers and VOs left gob (a
// bare gob stream of Record), one from the binaries that journaled a
// gob stream behind the 0x82 marker.
var oldJournals = []string{
	"testdata/golden/pre-binary-journal-seg-0000000000000001.wal",
	"testdata/golden/gob-0x82-journal-seg-0000000000000001.wal",
}

// TestOldFormatJournalRefusedAtOpen is the zero-false-alarm pin for a
// format bump: an honest server's records from a previous binary must
// be refused with the typed error when the journal is opened, never
// replayed into the verifier.
func TestOldFormatJournalRefusedAtOpen(t *testing.T) {
	for _, golden := range oldJournals {
		seg, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.wal"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		u := proto2.NewUser(1, vdb.New(0).Root(), 1<<20)
		a, err := New(Config{User: u, Epoch: 4, Users: 1, Publish: func(Report) error { return nil }, WALDir: dir})
		if err == nil {
			a.Stop()
			t.Fatalf("%s: old-format journal opened; failure recorded: %v", golden, a.Err())
		}
		if !errors.Is(err, ErrJournalFormat) {
			t.Fatalf("%s: New = %v, want ErrJournalFormat", golden, err)
		}
	}
}

// TestRecordFormatMarker pins the marker byte and that a current record
// round-trips behind it.
func TestRecordFormatMarker(t *testing.T) {
	op := put("k", "v")
	b, err := appendRecord(nil, Record{Op: op, Resp: &core.OpResponseII{Ctr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x83 {
		t.Fatalf("marker %#x, want 0x83", b[0])
	}
	rec, err := decodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := rec.Op.(*vdb.WriteOp); !ok || w.Puts[0].Key != "k" || rec.Resp.Ctr != 1 {
		t.Fatalf("round trip: %#v", rec)
	}
	for _, old := range [][]byte{nil, {0x82}, append([]byte{0x82}, b[1:]...), {0x25, 0xff}} {
		if _, err := decodeRecord(old); !errors.Is(err, ErrJournalFormat) {
			t.Fatalf("record %x: %v, want ErrJournalFormat", old, err)
		}
	}
}

// TestRecordGolden pins the journal form of a record, and that what
// decodes is what was journaled.
func TestRecordGolden(t *testing.T) {
	db := vdb.New(0)
	if err := db.Preload(&vdb.WriteOp{Puts: []vdb.KV{{Key: "a", Val: []byte("1")}}}); err != nil {
		t.Fatal(err)
	}
	op := put("k", "v")
	ans, vo, err := db.Apply(op)
	if err != nil {
		t.Fatal(err)
	}
	records := map[string]Record{
		"record-op": {Op: op, Resp: &core.OpResponseII{Answer: ans, VO: vo, Ctr: 1, Last: 2}},
	}
	for name, rec := range records {
		b, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wiretest.Bytes(t, filepath.Join("testdata/golden", name+".bin"), b)
		got, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The record was written from the server's live VO; what decodes
		// holds the VO's bytes, as the VO does once materialized.
		if _, err := rec.Resp.VO.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: round trip\n got %#v\nwant %#v", name, got, rec)
		}
	}
	good, err := appendRecord(nil, records["record-op"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecord(append(good, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// A response that does not answer its operation is not a record: a
	// plain write followed by a Protocol I response, and a request where
	// the response belongs.
	for name, resp := range map[string]any{"Protocol I response to a write": &core.OpResponseI{Ctr: 1}, "request as response": &core.SyncRequest{}} {
		bad, err := wire.Append([]byte{recordFormat}, op)
		if err == nil {
			bad, err = wire.Append(bad, resp)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeRecord(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRetiredRecordsRefusedAtOpen: a journal holding a cross-shard
// obligation, as binaries with a sharded database journaled one — a
// forest's multi-leg response, or a single tree's plain response to a
// cross-shard transaction — is refused with ErrJournalFormat at open.
func TestRetiredRecordsRefusedAtOpen(t *testing.T) {
	for _, name := range []string{"record-cross.bin", "record-cross-single-tree.bin"} {
		rec, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		w, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(0, rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		u := proto2.NewUser(1, vdb.New(0).Root(), 1<<20)
		a, err := New(Config{User: u, Epoch: 4, Users: 1, Publish: func(Report) error { return nil }, WALDir: dir})
		if err == nil {
			a.Stop()
			t.Fatalf("%s: journal opened; failure recorded: %v", name, a.Err())
		}
		if !errors.Is(err, ErrJournalFormat) {
			t.Fatalf("%s: New = %v, want ErrJournalFormat", name, err)
		}
	}
}

// TestRecordEncodeAllocations is the journal's allocation tripwire: an
// obligation is encoded into the buffer the auditor keeps, so once the
// buffer has grown to size a record costs no allocation at all (budget
// 2; a gob encoder per record cost 40-odd and a type preamble).
func TestRecordEncodeAllocations(t *testing.T) {
	db := vdb.New(0)
	op := put("k", "v")
	ans, vo, err := db.Apply(op)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Op: op, Resp: &core.OpResponseII{Answer: ans, VO: vo, Ctr: 1, Last: 2}}
	var buf []byte
	got := testing.AllocsPerRun(200, func() {
		b, err := appendRecord(buf[:0], rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
	})
	if got > 2 {
		t.Errorf("one record encode: %.0f allocations, budget 2", got)
	}
}

// TestCursorGoldenBytes pins the cursor file as it sits on disk —
// envelope, format byte, epoch and the user state at the cut
// (-update rewrites it): what the golden loads to re-encodes to the
// same file.
func TestCursorGoldenBytes(t *testing.T) {
	state, err := proto2.NewUser(1, vdb.New(0).Root(), 16).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	cur := Cursor{Epoch: 3, State: state}
	if cur.encode()[0] != 0x8A {
		t.Fatalf("cursor format byte %#x, want 0x8A", cur.encode()[0])
	}
	dir := t.TempDir()
	if err := wal.WriteCursor(nil, dir, cur.encode()); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, "cursor"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden", "journal", "cursor")
	wiretest.Bytes(t, golden, written)

	back, err := LoadCursor(filepath.Dir(golden))
	if err != nil || back == nil {
		t.Fatalf("LoadCursor(golden) = %v, %v", back, err)
	}
	if !reflect.DeepEqual(*back, cur) {
		t.Errorf("golden cursor loads as %+v, want %+v", *back, cur)
	}
	if err := wal.WriteCursor(nil, dir, back.encode()); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(filepath.Join(dir, "cursor")); err != nil || !reflect.DeepEqual(again, written) {
		t.Errorf("load + save is not the identity (err %v)", err)
	}
	if _, err := proto2.RestoreUser(back.State); err != nil {
		t.Errorf("the cut state in the cursor does not restore: %v", err)
	}
}

// TestOldFormatCursorRefused: the cursor a gob-era binary left behind
// verifies as an envelope and is then refused with ErrJournalFormat —
// at LoadCursor and at New — and stays on disk as it was.
func TestOldFormatCursorRefused(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "golden", "gob-journal", "cursor"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cursor"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if cur, err := LoadCursor(dir); !errors.Is(err, ErrJournalFormat) || cur != nil {
		t.Fatalf("LoadCursor = %v, %v; want ErrJournalFormat", cur, err)
	}
	u := proto2.NewUser(1, vdb.New(0).Root(), 1<<20)
	a, err := New(Config{User: u, Epoch: 4, Users: 1, Publish: func(Report) error { return nil }, WALDir: dir})
	if err == nil {
		a.Stop()
	}
	if !errors.Is(err, ErrJournalFormat) {
		t.Fatalf("New over a gob-era cursor = %v, want ErrJournalFormat", err)
	}
	if after, rerr := os.ReadFile(filepath.Join(dir, "cursor")); rerr != nil || !reflect.DeepEqual(after, old) {
		t.Fatalf("the refused cursor changed on disk (err %v)", rerr)
	}
	// Rot is not an older format: a flipped byte fails the checksum.
	for i := range old {
		rotten := append([]byte(nil), old...)
		rotten[i] ^= 0x10
		if err := os.WriteFile(filepath.Join(dir, "cursor"), rotten, 0o644); err != nil {
			t.Fatal(err)
		}
		if cur, err := LoadCursor(dir); err == nil {
			t.Fatalf("cursor with byte %d flipped loaded as %+v", i, cur)
		}
	}
}
