package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/durable"
	"trustedcvs/internal/fault"
)

// replayAll collects every replayed record.
func replayAll(t *testing.T, dir string) []Record {
	t.Helper()
	var recs []Record
	if err := Replay(dir, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := []Record{
		{Epoch: 1, Payload: []byte("alpha")},
		{Epoch: 1, Payload: []byte("beta")},
		{Epoch: 2, Payload: []byte("gamma")},
		{Epoch: 3, Payload: nil},
		{Epoch: 3, Payload: []byte("delta")},
	}
	for _, r := range want {
		if err := w.Append(r.Epoch, r.Payload); err != nil {
			t.Fatalf("Append(%d): %v", r.Epoch, err)
		}
	}
	if got := w.Appended(); got != uint64(len(want)) {
		t.Fatalf("Appended = %d, want %d", got, len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Epoch != want[i].Epoch || string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWALRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for e := uint64(1); e <= 4; e++ {
		for i := 0; i < 3; i++ {
			if err := w.Append(e, []byte(fmt.Sprintf("e%d-%d", e, i))); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
	}
	// Epochs 1..3 have rotated away; epoch 4 is the active segment.
	if got := w.Segments(); got != 3 {
		t.Fatalf("sealed segments = %d, want 3", got)
	}
	if err := w.TruncateThrough(2); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	if got := w.Segments(); got != 1 {
		t.Fatalf("sealed segments after truncate = %d, want 1", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs := replayAll(t, dir)
	if len(recs) != 6 {
		t.Fatalf("replayed %d records, want 6 (epochs 3,4)", len(recs))
	}
	for _, r := range recs {
		if r.Epoch < 3 {
			t.Fatalf("truncated epoch %d resurfaced in replay", r.Epoch)
		}
	}
}

func TestWALTornTailTruncatesCleanly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append(1, []byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Tear the final frame: chop off its last byte (the digest tail).
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(seqs))
	}
	last := filepath.Join(dir, segName(seqs[len(seqs)-1]))
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(last, fi.Size()-1); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	recs := replayAll(t, dir)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(recs))
	}
	// Reopening repairs the tail and resumes on a fresh segment.
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := w2.Append(2, []byte("post-crash")); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs = replayAll(t, dir)
	if len(recs) != 4 || string(recs[3].Payload) != "post-crash" {
		t.Fatalf("replay after repair = %d records (%+v)", len(recs), recs)
	}
}

func TestWALCorruptMiddleSegmentIsError(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for e := uint64(1); e <= 3; e++ {
		if err := w.Append(e, []byte("x")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seqs, _ := listSegments(dir)
	if len(seqs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(seqs))
	}
	// Flip a payload byte in the FIRST (non-final) segment.
	first := filepath.Join(dir, segName(seqs[0]))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(segMagic)+16] ^= 0xff
	if err := os.WriteFile(first, data, 0o666); err != nil {
		t.Fatalf("write: %v", err)
	}
	err = Replay(dir, func(Record) error { return nil })
	if err == nil {
		t.Fatal("Replay accepted a corrupt non-final segment")
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	}
}

// epochFor/payloadFor define the scripted crash workload: eight
// appends, two per epoch, epochs 1..4.
func epochFor(i int) uint64   { return uint64(i/2) + 1 }
func payloadFor(i int) []byte { return []byte(fmt.Sprintf("op-%02d", i)) }
func workloadAppends() int    { return 8 }

// runCrashWorkload drives the scripted workload against a WAL on ffs,
// returning the indices whose Append reported durable success.
func runCrashWorkload(t *testing.T, dir string, ffs *fault.FaultyFS) (ok []int, openErr error) {
	t.Helper()
	w, err := Open(Options{Dir: dir, FS: ffs})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	for i := 0; i < workloadAppends(); i++ {
		if err := w.Append(epochFor(i), payloadFor(i)); err == nil {
			ok = append(ok, i)
		}
	}
	return ok, nil
}

// checkZeroLoss asserts the reboot invariant: the replayed log is a
// clean prefix of the attempted appends and covers every append that
// reported success — a kill at any scheduled point loses zero records
// whose answers could have been released.
func checkZeroLoss(t *testing.T, dir string, ok []int) {
	t.Helper()
	recs := replayAll(t, dir)
	if len(recs) > workloadAppends() {
		t.Fatalf("replayed %d records, attempted only %d", len(recs), workloadAppends())
	}
	for j, r := range recs {
		if r.Epoch != epochFor(j) || string(r.Payload) != string(payloadFor(j)) {
			t.Fatalf("replayed record %d = (e%d, %q), want (e%d, %q)",
				j, r.Epoch, r.Payload, epochFor(j), payloadFor(j))
		}
	}
	for _, i := range ok {
		if i >= len(recs) {
			t.Fatalf("append %d reported durable but replay has only %d records", i, len(recs))
		}
	}
	// And the repaired log must accept new appends after reboot.
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reboot Open: %v", err)
	}
	if err := w.Append(99, []byte("reborn")); err != nil {
		t.Fatalf("reboot Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("reboot Close: %v", err)
	}
}

// TestWALCrashScheduleZeroLoss kills the filesystem at every write,
// sync, and create index the workload reaches and asserts zero loss of
// acknowledged appends after reboot.
func TestWALCrashScheduleZeroLoss(t *testing.T) {
	for _, kind := range []string{"write", "sync", "create"} {
		for n := uint64(1); ; n++ {
			name := fmt.Sprintf("%s-%d", kind, n)
			ffs := &fault.FaultyFS{}
			switch kind {
			case "write":
				ffs.CrashAtWrite = n
			case "sync":
				ffs.CrashAtSync = n
			case "create":
				ffs.CrashAtCreate = n
			}
			crashed := false
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				ok, openErr := runCrashWorkload(t, dir, ffs)
				crashed = ffs.Crashed()
				if openErr != nil && !errors.Is(openErr, fault.ErrCrashed) {
					t.Fatalf("Open failed for a non-crash reason: %v", openErr)
				}
				checkZeroLoss(t, dir, ok)
			})
			if !crashed {
				// The schedule ran past the workload's last operation of
				// this kind: the crash matrix for this kind is exhausted.
				break
			}
		}
	}
}

// TestWALCrashDuringTruncate kills the filesystem at each unlink of a
// truncation and asserts surviving epochs replay intact.
func TestWALCrashDuringTruncate(t *testing.T) {
	for n := uint64(1); ; n++ {
		ffs := &fault.FaultyFS{CrashAtRemove: n}
		crashed := false
		t.Run(fmt.Sprintf("remove-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(Options{Dir: dir, FS: ffs})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			var ok []int
			for i := 0; i < workloadAppends(); i++ {
				if err := w.Append(epochFor(i), payloadFor(i)); err == nil {
					ok = append(ok, i)
				}
			}
			terr := w.TruncateThrough(2) // drops epoch-1 and epoch-2 segments
			crashed = ffs.Crashed()
			if crashed && terr == nil {
				t.Fatal("TruncateThrough swallowed the crash")
			}
			_ = w.Close()

			// Reboot: epochs > 2 must be fully intact; whatever survives
			// of epochs <= 2 must be a contiguous suffix-consistent run.
			recs := replayAll(t, dir)
			var high []Record
			for _, r := range recs {
				if r.Epoch > 2 {
					high = append(high, r)
				}
			}
			if len(high) != 4 {
				t.Fatalf("epochs >2: replayed %d records, want 4", len(high))
			}
			for j, r := range high {
				i := 4 + j // workload indices 4..7 are epochs 3,4
				if r.Epoch != epochFor(i) || string(r.Payload) != string(payloadFor(i)) {
					t.Fatalf("record %d = (e%d, %q), want (e%d, %q)",
						j, r.Epoch, r.Payload, epochFor(i), payloadFor(i))
				}
			}
		})
		if !crashed {
			break
		}
	}
}

// TestWALAppendErrorIsSticky: after an I/O failure every subsequent
// Append fails fast — the signal the auditor uses to degrade to
// synchronous per-op verification.
func TestWALAppendErrorIsSticky(t *testing.T) {
	ffs := &fault.FaultyFS{CrashAtSync: 2}
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	if err := w.Append(1, []byte("a")); err != nil {
		t.Fatalf("first Append: %v", err)
	}
	if err := w.Append(1, []byte("b")); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("crashing Append = %v, want ErrCrashed", err)
	}
	if err := w.Append(1, []byte("c")); err == nil {
		t.Fatal("Append after failure succeeded; sticky error lost")
	}
}

func TestWALSyncOnRotatePolicy(t *testing.T) {
	// Under SyncOnRotate a crash loses at most the active segment's
	// tail, and sealed segments are always durable.
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncOnRotate})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for e := uint64(1); e <= 3; e++ {
		for i := 0; i < 2; i++ {
			if err := w.Append(e, []byte(fmt.Sprintf("e%d-%d", e, i))); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(replayAll(t, dir)); got != 6 {
		t.Fatalf("replayed %d, want 6", got)
	}
}

func TestCursorRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadCursor(dir); err != nil || ok {
		t.Fatalf("empty dir cursor: ok=%v err=%v", ok, err)
	}
	for _, payload := range [][]byte{[]byte("first"), []byte("second longer payload")} {
		if err := WriteCursor(durable.OS, dir, payload); err != nil {
			t.Fatalf("WriteCursor: %v", err)
		}
		got, ok, err := ReadCursor(dir)
		if err != nil || !ok || string(got) != string(payload) {
			t.Fatalf("ReadCursor = (%q, %v, %v), want %q", got, ok, err, payload)
		}
	}
}

func TestCursorChecksumRejectsRot(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCursor(durable.OS, dir, []byte("payload")); err != nil {
		t.Fatalf("WriteCursor: %v", err)
	}
	path := filepath.Join(dir, cursorFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(cursorMagic)+8] ^= 0x01
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, ok, err := ReadCursor(dir); err == nil || ok {
		t.Fatalf("rotted cursor accepted: ok=%v err=%v", ok, err)
	}
	data[len(cursorMagic)+8] ^= 0x01
	if err := os.WriteFile(path, append(data, 0), 0o666); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, ok, err := ReadCursor(dir); err == nil || ok {
		t.Fatalf("cursor with trailing bytes accepted: ok=%v err=%v", ok, err)
	}
}

// TestCursorGoldenBytes pins the cursor's on-disk format: the checked-
// in file was written by the pre-durable WriteCursor, must still load,
// and a cursor written today must match it byte for byte.
func TestCursorGoldenBytes(t *testing.T) {
	const payload = "golden cursor payload: epoch 7, boundary-cut state"
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", cursorFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, cursorFile), golden, 0o666); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCursor(dir)
	if err != nil || !ok || string(got) != payload {
		t.Fatalf("golden cursor: ReadCursor = (%q, %v, %v)", got, ok, err)
	}
	if err := WriteCursor(durable.OS, dir, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, cursorFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("cursor bytes changed:\n got %q\nwant %q", written, golden)
	}
}
