package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

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

// payloadOf is record i's payload, n bytes long: sizes near a fraction
// of segChunk are how the tests make a journal rotate.
func payloadOf(i, n int) []byte {
	p := bytes.Repeat([]byte{byte('a' + i%26)}, n)
	copy(p, fmt.Sprintf("op-%02d", i))
	return p
}

// TestWALRotationAndTruncation: segments rotate when full, whatever the
// epochs do, so adjacent segments share their boundary epoch; Frees and
// TruncateThrough count only sealed segments whose newest frame the
// epoch covers.
func TestWALRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Three frames fill a segment; epochs 1..5 take two appends each:
	// [1 1 2] [2 3 3] [4 4 5] and the active [5].
	for e := uint64(1); e <= 5; e++ {
		for i := 0; i < 2; i++ {
			if err := w.Append(e, payloadOf(int(e)*2+i, segChunk/4)); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
	}
	if got := w.Segments(); got != 3 {
		t.Fatalf("sealed segments = %d, want 3", got)
	}
	if w.Frees(1) || !w.Frees(2) {
		t.Fatalf("Frees(1), Frees(2) = %v, %v; want false, true", w.Frees(1), w.Frees(2))
	}
	if err := w.TruncateThrough(2); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	if got := w.Segments(); got != 2 {
		t.Fatalf("sealed segments after truncate = %d, want 2", got)
	}
	if w.Frees(2) {
		t.Fatal("Frees(2) after TruncateThrough(2)")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs := replayAll(t, dir)
	if len(recs) != 7 {
		t.Fatalf("replayed %d records, want 7", len(recs))
	}
	// The shared boundary epoch outlives the segment it was truncated
	// through; a replay skips it by epoch.
	if recs[0].Epoch != 2 {
		t.Fatalf("first surviving record is epoch %d, want the shared boundary epoch 2", recs[0].Epoch)
	}
	for _, r := range recs {
		if r.Epoch < 2 {
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
	// Half a segment each: every frame gets a segment of its own.
	for e := uint64(1); e <= 3; e++ {
		if err := w.Append(e, payloadOf(int(e), segChunk/2)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seqs, _ := listSegments(dir)
	if len(seqs) != 3 {
		t.Fatalf("want 3 segments, got %d", len(seqs))
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
// nothing is trimmed or synced, so the active segment keeps its zero
// fill.
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
// replays exactly N records although its active segment ends in zero
// fill; sealed segments never carry it; reopening trims it; and after
// one more append and a clean Close every segment ends exactly at its
// last frame.
func TestWALKilledJournalTrimsSlack(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 0; i < n; i++ {
		if err := w.Append(uint64(i/3), bigPayloadFor(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	kill(t, w)
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) != 4 {
		t.Fatalf("segments = %v, %v; want 4", seqs, err)
	}
	for _, seq := range seqs[:3] {
		if size, end := segmentTail(t, dir, seq); size != end {
			t.Fatalf("sealed %s: %d bytes, last frame ends at %d", segName(seq), size, end)
		}
	}
	if size, end := segmentTail(t, dir, seqs[3]); size != segChunk || end >= size {
		t.Fatalf("killed %s: %d bytes, last frame ends at %d; want %d bytes ending in zeros", segName(seqs[3]), size, end, segChunk)
	}
	recs := replayAll(t, dir)
	if len(recs) != n {
		t.Fatalf("replayed %d records from a killed journal, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Epoch != uint64(i/3) || !bytes.Equal(r.Payload, bigPayloadFor(i)) {
			t.Fatalf("record %d = (e%d, %q…)", i, r.Epoch, r.Payload[:8])
		}
	}

	w, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if size, end := segmentTail(t, dir, seqs[3]); size != end {
		t.Fatalf("Open left %d bytes of zero fill on %s", size-end, segName(seqs[3]))
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
	if len(seqs) != 5 {
		t.Fatalf("segments after reopen = %v, want 5", seqs)
	}
	for _, seq := range seqs {
		if size, end := segmentTail(t, dir, seq); size != end || end <= int64(len(segMagic)) {
			t.Fatalf("%s after Close: %d bytes, last frame ends at %d", segName(seq), size, end)
		}
	}
}

// TestWALSegmentSizeNeverChanges: across many appends to one segment,
// whose epochs advance, the file keeps the size it was created with and
// every byte past the last frame reads as zero — an append's flush has
// no size change and no fresh extent to commit.
func TestWALSegmentSizeNeverChanges(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	path := filepath.Join(dir, segName(1))
	for i := 0; i < 300; i++ {
		if err := w.Append(uint64(i/7), payloadOf(i, 1403)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != segChunk {
			t.Fatalf("after append %d the segment is %d bytes, want %d", i, fi.Size(), segChunk)
		}
		if i%50 != 49 {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, end, _ := parseSegment(data)
		if len(recs) != i+1 || end < 0 {
			t.Fatalf("segment holds %d frames after %d appends (zeros from %d)", len(recs), i+1, end)
		}
		if bytes.Count(data[end:], []byte{0}) != len(data)-int(end) {
			t.Fatalf("after append %d a byte past the last frame is not zero", i)
		}
	}
	if got := w.Segments(); got != 0 {
		t.Fatalf("%d segments sealed: epochs advancing must not rotate", got)
	}
}

// TestWALReservesPastLargeFrames: a frame that does not fit the active
// segment rotates first, and a frame larger than a fresh segment's zeros
// gets that segment to itself, grown to hold it; the next frame rotates
// into zero-filled space again, and replay survives a kill either way.
func TestWALReservesPastLargeFrames(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	big := payloadOf(1, segChunk)
	for i, p := range [][]byte{payloadOf(0, 10), big, payloadOf(2, 10)} {
		if err := w.Append(1, p); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	kill(t, w)
	if size, end := segmentTail(t, dir, 1); size != end {
		t.Fatalf("%s: %d bytes, last frame ends at %d", segName(1), size, end)
	}
	if size, end := segmentTail(t, dir, 2); size != end || end != int64(len(segMagic)+16+len(big)+32) {
		t.Fatalf("%s: %d bytes, last frame ends at %d; want the one large frame exactly", segName(2), size, end)
	}
	if size, end := segmentTail(t, dir, 3); size != segChunk || end >= size {
		t.Fatalf("%s: %d bytes, last frame ends at %d; want a zero-filled segment", segName(3), size, end)
	}
	if got := len(replayAll(t, dir)); got != 3 {
		t.Fatalf("replayed %d, want 3", got)
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
		if err := w.Append(e, payloadOf(int(e), segChunk/2)); err != nil {
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
		if err := w.Append(1, payloadOf(i, 5)); err != nil {
			t.Fatal(err)
		}
	}
	kill(t, w)
	// Cut the zero fill and the last frame's final byte: the file
	// ends inside a torn frame.
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
// every segment ends at its last frame. The payloads fill a segment
// every twenty-odd appends.
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
				if err := w.Append(uint64(i/10), payloadOf(g*each+i, segChunk/24)); err != nil {
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
	if len(seqs) < 8 {
		t.Fatalf("%d segments: the appends did not rotate", len(seqs))
	}
	for _, seq := range seqs {
		if size, end := segmentTail(t, dir, seq); size != end {
			t.Fatalf("%s: %d bytes, last frame ends at %d", segName(seq), size, end)
		}
	}
}

// epochFor/bigPayloadFor define the scripted crash workload: eight
// appends, two per epoch, epochs 1..4, and two frames to a segment, so
// the workload rotates on size at every epoch boundary.
func epochFor(i int) uint64      { return uint64(i/2) + 1 }
func bigPayloadFor(i int) []byte { return payloadOf(i, 400<<10) }
func workloadAppends() int       { return 8 }

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
		if err := w.Append(epochFor(i), bigPayloadFor(i)); err == nil {
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
		if r.Epoch != epochFor(j) || !bytes.Equal(r.Payload, bigPayloadFor(j)) {
			t.Fatalf("replayed record %d = (e%d, %q…), want (e%d, %q…)",
				j, r.Epoch, r.Payload[:8], epochFor(j), bigPayloadFor(j)[:8])
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
				if err := w.Append(epochFor(i), bigPayloadFor(i)); err == nil {
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
				if r.Epoch != epochFor(i) || !bytes.Equal(r.Payload, bigPayloadFor(i)) {
					t.Fatalf("record %d = (e%d, %q…), want (e%d, %q…)",
						j, r.Epoch, r.Payload[:8], epochFor(i), bigPayloadFor(i)[:8])
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
// synchronous per-op verification. Sync 1 is Open's zero fill, so sync
// 3 is the second append's flush.
func TestWALAppendErrorIsSticky(t *testing.T) {
	ffs := &fault.FaultyFS{CrashAtSync: 3}
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

// powerCut keeps what a power loss would: each file as of its last
// successful flush. Under a fault.FaultyFS it sees only the flushes
// before the crash point.
type powerCut struct {
	durable.FS
	mu   sync.Mutex
	kept map[string][]byte
}

type powerCutFile struct {
	durable.File
	pc   *powerCut
	name string
}

func (p *powerCut) Create(name string) (durable.File, error) {
	f, err := p.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &powerCutFile{File: f, pc: p, name: name}, nil
}

func (p *powerCut) Remove(name string) error {
	p.mu.Lock()
	delete(p.kept, name)
	p.mu.Unlock()
	return p.FS.Remove(name)
}

func (f *powerCutFile) Sync() error     { return f.keep(f.File.Sync()) }
func (f *powerCutFile) SyncData() error { return f.keep(f.File.SyncData()) }

func (f *powerCutFile) keep(err error) error {
	if err != nil {
		return err
	}
	data, err := os.ReadFile(f.name)
	if err != nil {
		return err
	}
	f.pc.mu.Lock()
	defer f.pc.mu.Unlock()
	f.pc.kept[f.name] = data
	return nil
}

// cut rewrites every file under dir as its last flush left it.
func (p *powerCut) cut(t *testing.T, dir string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		if data, ok := p.kept[path]; ok {
			err = os.WriteFile(path, data, 0o666)
		} else {
			err = os.Remove(path)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALSyncOnRotateLosesAtMostCurrentEpoch crashes a SyncOnRotate
// journal at each of its flushes, and once not at all, then cuts the
// power: what replays is a prefix of the appends, and every
// acknowledged frame older than the newest acknowledged epoch is in it.
// Three frames fill a segment and epochs take two, so rotations land
// inside epochs as well as on their boundaries.
func TestWALSyncOnRotateLosesAtMostCurrentEpoch(t *testing.T) {
	const epochs, perEpoch = 4, 2
	payload := func(i int) []byte { return payloadOf(i, segChunk/4) }
	for n := uint64(2); ; n++ { // sync 1 is Open's zero fill
		ffs := &fault.FaultyFS{CrashAtSync: n}
		crashed := false
		t.Run(fmt.Sprintf("sync-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			pc := &powerCut{FS: durable.OS, kept: map[string][]byte{}}
			ffs.Inner = pc
			w, err := Open(Options{Dir: dir, FS: ffs, Sync: SyncOnRotate})
			if err != nil {
				t.Fatal(err)
			}
			var acked []int
			for i := 0; i < epochs*perEpoch; i++ {
				if err := w.Append(uint64(i/perEpoch), payload(i)); err == nil {
					acked = append(acked, i)
				}
			}
			crashed = ffs.Crashed()
			pc.cut(t, dir) // no Close: the power is gone
			recs := replayAll(t, dir)
			for j, r := range recs {
				if r.Epoch != uint64(j/perEpoch) || !bytes.Equal(r.Payload, payload(j)) {
					t.Fatalf("replayed record %d = (e%d, %q…): not a prefix of the appends", j, r.Epoch, r.Payload[:8])
				}
			}
			if len(acked) == 0 {
				return
			}
			current := uint64(acked[len(acked)-1] / perEpoch)
			for _, i := range acked {
				if uint64(i/perEpoch) < current && i >= len(recs) {
					t.Fatalf("append %d of epoch %d was lost; only the current epoch %d may be", i, i/perEpoch, current)
				}
			}
			if !crashed && len(recs) != len(acked)-(perEpoch-1) {
				t.Fatalf("power cut kept %d of %d frames; want all but the current epoch's unflushed %d",
					len(recs), len(acked), perEpoch-1)
			}
		})
		if !crashed {
			break
		}
	}
}

// TestWALOpensEpochRotatedJournal: a journal written by the earlier
// release, which rotated at every epoch and fallocated its segments —
// four sealed segments and a cursor under testdata — opens and replays
// to the same records, and appending after it leaves its segments
// byte for byte as they were.
func TestWALOpensEpochRotatedJournal(t *testing.T) {
	src := filepath.Join("testdata", "golden", "epoch-rotated-journal")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fixture := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fixture[e.Name()] = data
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	var want []Record
	for e := uint64(0); e < 4; e++ {
		for i := 0; i < 3; i++ {
			want = append(want, Record{Epoch: e, Payload: []byte(fmt.Sprintf("epoch-rotated journal: epoch %d record %d", e, i))})
		}
	}
	check := func(recs []Record) {
		t.Helper()
		if len(recs) < len(want) {
			t.Fatalf("replayed %d records, want at least %d", len(recs), len(want))
		}
		for i, r := range want {
			if recs[i].Epoch != r.Epoch || !bytes.Equal(recs[i].Payload, r.Payload) {
				t.Fatalf("record %d = (e%d, %q), want (e%d, %q)", i, recs[i].Epoch, recs[i].Payload, r.Epoch, r.Payload)
			}
		}
	}
	check(replayAll(t, dir))
	if got, ok, err := ReadCursor(dir); err != nil || !ok || string(got) != "epoch-rotated journal cursor: epoch 1" {
		t.Fatalf("ReadCursor = (%q, %v, %v)", got, ok, err)
	}

	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if w.Segments() != 4 || !w.Frees(0) {
		t.Fatalf("Open found %d sealed segments (Frees(0) = %v), want 4 and true", w.Segments(), w.Frees(0))
	}
	if err := w.Append(3, []byte("appended after reopening")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, dir)
	if len(recs) != len(want)+1 || string(recs[len(want)].Payload) != "appended after reopening" {
		t.Fatalf("replayed %d records after an append, want %d", len(recs), len(want)+1)
	}
	check(recs)
	for name, data := range fixture {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed on reopen and append (%v)", name, err)
		}
	}
}

// BenchmarkAppendAcrossEpochs is the journal's row of the epoch-audit
// hot path: two journals (two clients on one disk) appending
// concurrently under SyncEachAppend, obligation-sized payloads, the
// epoch advancing every 128 appends, rotations included. It reports
// the per-append latency's p50 and p99.
func BenchmarkAppendAcrossEpochs(b *testing.B) {
	const journals, perEpoch = 2, 128
	payload := payloadOf(0, 1403)
	lat := make([][]time.Duration, journals)
	var wg sync.WaitGroup
	b.ResetTimer()
	for j := 0; j < journals; j++ {
		w, err := Open(Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		lat[j] = make([]time.Duration, 0, b.N)
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			defer w.Close()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := w.Append(uint64(i/perEpoch), payload); err != nil {
					b.Error(err)
					return
				}
				lat[j] = append(lat[j], time.Since(t0))
			}
		}(j)
	}
	wg.Wait()
	b.StopTimer()
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return
	}
	slices.Sort(all)
	us := func(q float64) float64 { return float64(all[int(q*float64(len(all)-1))]) / float64(time.Microsecond) }
	b.ReportMetric(us(0.50), "p50-us")
	b.ReportMetric(us(0.99), "p99-us")
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

// Segments reports how many sealed segments remain; the active segment
// is excluded.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed)
}

// Appended reports the total frames appended since Open.
func (w *WAL) Appended() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}
