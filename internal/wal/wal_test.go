package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// kill abandons w the way a dead process does: its descriptor goes and
// nothing is trimmed or synced, so the active segment keeps its
// preallocated slack.
func kill(t *testing.T, w *WAL) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.active.Close(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	w.active, w.closed = nil, true
}

// segmentTail reports a segment file's size and the end of its last
// intact frame.
func segmentTail(t *testing.T, dir string, seq uint64) (size, end int64) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	_, torn, _ := parseSegment(data)
	if torn < 0 {
		return int64(len(data)), int64(len(data))
	}
	return int64(len(data)), torn
}

// TestWALKilledJournalTrimsSlack: a journal killed after N appends
// replays exactly N records although its active segment ends in
// preallocated zeros; sealed segments never carry slack; reopening
// trims it; and after one more append and a clean Close every segment
// ends exactly at its last frame.
func TestWALKilledJournalTrimsSlack(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 0; i < n; i++ {
		if err := w.Append(uint64(i/3), payloadFor(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	kill(t, w)
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) != 3 {
		t.Fatalf("segments = %v, %v; want 3", seqs, err)
	}
	for _, seq := range seqs[:2] {
		if size, end := segmentTail(t, dir, seq); size != end {
			t.Fatalf("sealed %s: %d bytes, last frame ends at %d", segName(seq), size, end)
		}
	}
	if size, end := segmentTail(t, dir, seqs[2]); size == end {
		t.Log("no preallocation on this filesystem: the killed segment has no slack")
	}
	recs := replayAll(t, dir)
	if len(recs) != n {
		t.Fatalf("replayed %d records from a killed journal, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Epoch != uint64(i/3) || string(r.Payload) != string(payloadFor(i)) {
			t.Fatalf("record %d = (e%d, %q)", i, r.Epoch, r.Payload)
		}
	}

	w, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if size, end := segmentTail(t, dir, seqs[2]); size != end {
		t.Fatalf("Open left %d bytes of slack on %s", size-end, segName(seqs[2]))
	}
	if err := w.Append(9, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(replayAll(t, dir)); got != n+1 {
		t.Fatalf("replayed %d records, want %d", got, n+1)
	}
	seqs, _ = listSegments(dir)
	if len(seqs) != 4 {
		t.Fatalf("segments after reopen = %v, want 4", seqs)
	}
	for _, seq := range seqs {
		if size, end := segmentTail(t, dir, seq); size != end || end <= int64(len(segMagic)) {
			t.Fatalf("%s after Close: %d bytes, last frame ends at %d", segName(seq), size, end)
		}
	}
}

// TestWALReservesPastLargeFrames: a frame that crosses the reserved end
// reserves a chunk past itself, so the next append still lands in owned
// space, and replay survives a kill either way.
func TestWALReservesPastLargeFrames(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || fi.Size() <= int64(len(segMagic)) {
		t.Skipf("no preallocation on this filesystem (%v)", err)
	}
	big := bytes.Repeat([]byte{'b'}, segChunk*3/4)
	for i := 0; i < 2; i++ {
		if err := w.Append(1, big); err != nil {
			t.Fatal(err)
		}
	}
	kill(t, w)
	if size, end := segmentTail(t, dir, 1); size-end != segChunk {
		t.Fatalf("%d bytes reserved past the crossing frame, want %d", size-end, segChunk)
	}
	if got := len(replayAll(t, dir)); got != 2 {
		t.Fatalf("replayed %d, want 2", got)
	}
}

// TestWALSealedZeroTailIsCorruption: zeros after the last frame end a
// final segment cleanly (that is crash slack) but are corruption in a
// sealed one. Taking them for a clean end there would let lost writes
// shorten the journal silently.
func TestWALSealedZeroTailIsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 2; e++ {
		if err := w.Append(e, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 4096)
	appendZeros := func(seq uint64) {
		f, err := os.OpenFile(filepath.Join(dir, segName(seq)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	appendZeros(2)
	if got := len(replayAll(t, dir)); got != 2 {
		t.Fatalf("zero tail on the final segment: replayed %d, want 2", got)
	}
	appendZeros(1)
	if err := Replay(dir, func(Record) error { return nil }); err == nil {
		t.Fatal("Replay accepted a sealed segment with a zero tail")
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a sealed segment with a zero tail")
	}
}

// TestWALOpenSyncsRepairBeforeNextSegment pins the repair order: the
// trimmed final segment is fully synced before the next segment is
// created. Crashing the first sync of a reopen must find no new
// segment; otherwise, after a power loss, the torn bytes could return
// in what is by then a non-final segment and the next Open would
// refuse the whole journal.
func TestWALOpenSyncsRepairBeforeNextSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(1, payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	kill(t, w)
	// Tear the last frame too, so there is a tail to trim on any
	// filesystem, preallocating or not.
	_, end := segmentTail(t, dir, 1)
	if err := os.Truncate(filepath.Join(dir, segName(1)), end-1); err != nil {
		t.Fatal(err)
	}

	ffs := &fault.FaultyFS{CrashAtSync: 1}
	if _, err := Open(Options{Dir: dir, FS: ffs}); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("Open with its first sync crashing = %v, want ErrCrashed", err)
	}
	if seqs, _ := listSegments(dir); len(seqs) != 1 {
		t.Fatalf("segments after a crash before the repair's sync = %v: the next segment was created first", seqs)
	}
	if got := len(replayAll(t, dir)); got != 2 {
		t.Fatalf("replayed %d, want the 2 intact records", got)
	}
	w, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after the crashed repair: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALConcurrentAppendsAcrossRotations races group-commit leaders'
// data flushes against rotations that trim, sync and close the segment
// under them: every append reports durable, every record replays, and
// every segment ends at its last frame.
func TestWALConcurrentAppendsAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 60
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(uint64(i/10), []byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					t.Errorf("writer %d append %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(replayAll(t, dir)); got != writers*each {
		t.Fatalf("replayed %d records, want %d", got, writers*each)
	}
	seqs, _ := listSegments(dir)
	for _, seq := range seqs {
		if size, end := segmentTail(t, dir, seq); size != end {
			t.Fatalf("%s: %d bytes, last frame ends at %d", segName(seq), size, end)
		}
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
