// Package wal implements the segmented, checksummed append-only
// journal underneath the crash-durable audit pipeline: every
// verification obligation the epoch auditor accepts is appended here
// BEFORE the optimistic answer is released, so a crash can lose the
// in-memory audit queue without losing a single obligation — recovery
// replays the log and re-runs verification, provably closing the
// optimistic exposure window across the crash.
//
// # Frame format
//
// A segment file is
//
//	magic "TCVSWAL1\n" | frame*
//
// and each frame is
//
//	8-byte big-endian payload length | 8-byte big-endian epoch |
//	payload | 32-byte digest footer
//
// following the checksummed-framing convention of the durable envelope
// (internal/durable): the footer is the domain-separated hash
// (digest.DomainWALFrame) of epoch and payload, so a torn or rotted
// frame is detected before a byte of it is trusted. Replay stops at
// the first frame of the final segment that fails its length or footer
// check — that is the torn tail a crash mid-append leaves — and
// surfaces checksum failures anywhere earlier as corruption.
//
// # Durability contract
//
// Append is durable on return: the frame has been flushed to disk when
// Append reports nil. Every segment is created full-size: its magic,
// then zeros to segChunk bytes, written and flushed before the
// segment's directory entry is synced. A frame is written at its offset
// into blocks that are already written, so the append's flush
// (fdatasync) carries the frame's data and nothing else: no size
// change, and no unwritten-extent conversion of the kind a fallocated
// range would need. Concurrent appenders coalesce into one flush (group
// commit), so the per-append cost amortizes under load. SyncOnRotate
// relaxes this for journals whose loss window may span an epoch: an
// append flushes only when its epoch is newer than the newest flushed
// one, and rotation and Close seal as always, so a crash loses at most
// the current epoch's tail (the server's applied-op journal uses this;
// the audit WAL does not). Both policies write the same segments.
//
// After a crash the active segment ends in its zero fill. A zero frame
// header fails its footer check, so the zeros are a torn tail like any
// other: Replay ends cleanly on them and Open trims them.
//
// # Rotation and truncation
//
// Segments rotate when full: an Append whose frame does not fit in the
// active segment's zeroed space rotates first, so a segment holds
// segChunk bytes, or one frame if a single frame is larger. Epochs are
// non-decreasing along the journal, and adjacent segments may share
// their boundary epoch. Truncation after epoch closure is a whole-file
// unlink (TruncateThrough) of every sealed segment whose newest frame
// the closed epoch covers; a frame of that epoch left in a later
// segment is one the caller's replay skips by epoch. Rotation seals the
// old segment — trim to the end of its last frame, full fsync, close —
// before creating the new one, so a sealed segment never carries its
// zero fill; zeros past the last frame of a sealed segment are
// corruption, never a clean end. Close seals the active segment the
// same way, and Open trims and fully syncs a torn final segment before
// the segment that follows it exists. Every create/unlink is followed
// by a directory sync — the syncdiscipline lint pass machine-checks
// that ordering, and it does not count a data-only flush as a seal.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
)

// segMagic heads every segment file.
const segMagic = "TCVSWAL1\n"

// maxFrameBytes bounds a declared payload length so a corrupt frame
// header cannot demand an absurd allocation before the footer check
// rejects it (same guard as the snapshot loader's).
const maxFrameBytes = 1 << 30

// segChunk is a segment's size as created: the magic, then zeros.
const segChunk = 1 << 20

// zeroFill is the source of a new segment's zeros. A package-level
// array, not a heap buffer: it costs no live heap, and pages of it that
// are only ever read stay the kernel's shared zero page.
var zeroFill [segChunk - len(segMagic)]byte

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// SyncPolicy selects when appended frames are made durable.
type SyncPolicy int

const (
	// SyncEachAppend makes every Append durable before it returns
	// (group-committed). The audit WAL requires this: an optimistic
	// answer must never outlive its logged obligation.
	SyncEachAppend SyncPolicy = iota
	// SyncOnRotate flushes (group-committed) only when an append's
	// epoch is newer than the newest flushed epoch, and seals at
	// rotation and Close. A crash loses at most the current epoch's
	// unflushed tail — replay truncates it cleanly.
	SyncOnRotate
)

// Options parameterizes Open.
type Options struct {
	// Dir is the journal directory (required; created if missing).
	Dir string
	// FS is the filesystem the journal writes through (nil =
	// durable.OS). Tests interpose fault.FaultyFS here to crash at
	// exact append, rotate, and truncate points.
	FS durable.FS
	// Sync is the durability policy (default SyncEachAppend).
	Sync SyncPolicy
}

// segment is one sealed (rotated-away) segment's metadata.
type segment struct {
	seq      uint64
	maxEpoch uint64
}

// WAL is one open journal. Appends may be issued concurrently, but
// callers that need replay to preserve their operation order (the
// audit pipeline does) must serialize their own appends — the journal
// preserves arrival order, it does not invent one.
type WAL struct {
	fs     durable.FS
	dir    string
	policy SyncPolicy

	// mu guards the active segment and all metadata below. Writes to
	// the active file happen under it (appends are small and the file
	// is buffered by the OS); syncs do not — see the group-commit path.
	mu        sync.Mutex
	active    durable.File
	seq       uint64 // active segment sequence number
	off       int64  // end of the active segment's last frame
	size      int64  // end of the active segment's zeroed space
	lastEp    uint64 // newest epoch appended since Open
	flushedEp uint64 // newest epoch whose frames are all durable
	written   uint64 // total frames written since Open
	synced    uint64 // total frames durable
	sealed    []segment
	closed    bool
	appendEr  error  // sticky first append-path error
	frame     []byte // frame-assembly buffer, reused across appends

	// syncMu serializes group-commit leaders; never nested inside mu.
	syncMu sync.Mutex
}

// segName renders a segment file name; lexical order matches numeric
// order because the sequence is fixed-width.
func segName(seq uint64) string { return fmt.Sprintf("seg-%016d.wal", seq) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the directory's segment sequence numbers in
// ascending order (plain os: listing is a read, and recovery reads
// with reboot semantics anyway).
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open opens (or initializes) the journal at opts.Dir. Existing
// segments are scanned: a torn tail on the newest segment (the zero
// fill after a crash is one) is truncated in place and the trimmed
// file fully synced before appending resumes on a fresh segment, so
// sealed files are never rewritten and the torn bytes cannot come back
// in what is by then a non-final segment. Earlier segments with invalid
// frames are corruption and fail Open.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", opts.Dir, err)
	}
	fs := opts.FS
	if fs == nil {
		fs = durable.OS
	}
	w := &WAL{fs: fs, dir: opts.Dir, policy: opts.Sync}

	seqs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		final := i == len(seqs)-1
		info, err := scanSegment(w.segPath(seq), final)
		if err != nil {
			return nil, err
		}
		if info.frames == 0 {
			// A rotation that crashed after creating the file (or a
			// fully torn segment): nothing in it, remove rather than
			// carry an empty sealed segment forever. The unlink is made
			// durable before the next segment exists: back as a
			// non-final segment, its zero fill would be corruption.
			if err := os.Remove(w.segPath(seq)); err != nil {
				return nil, fmt.Errorf("wal: remove empty %s: %w", segName(seq), err)
			}
			if err := w.fs.SyncDir(w.dir); err != nil {
				return nil, fmt.Errorf("wal: sync dir: %w", err)
			}
			continue
		}
		if final && info.tornAt >= 0 {
			if err := w.trimSegment(seq, info.tornAt); err != nil {
				return nil, err
			}
		}
		w.sealed = append(w.sealed, segment{seq: seq, maxEpoch: info.maxEpoch})
	}
	next := uint64(1)
	if len(seqs) > 0 {
		next = seqs[len(seqs)-1] + 1
	}
	if err := w.createSegmentLocked(next); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *WAL) segPath(seq uint64) string { return filepath.Join(w.dir, segName(seq)) }

// trimSegment drops a torn tail and makes the shorter file durable
// (full sync: the repair is a size change) before Open goes on to
// create the next segment.
func (w *WAL) trimSegment(seq uint64, size int64) error {
	f, err := w.fs.Reopen(w.segPath(seq))
	if err == nil {
		err = sealSegment(f, size)
	}
	if err != nil {
		return fmt.Errorf("wal: truncate torn tail of %s: %w", segName(seq), err)
	}
	return nil
}

// createSegmentLocked creates, zero-fills and installs a fresh active
// segment. The caller holds mu (or is Open, before the WAL escapes).
// The magic and the zeros are flushed before the directory entry is
// synced, so a segment that survives by name holds written blocks
// segChunk long, and every frame later overwrites some of them in place.
//
//lint:ignore syncdiscipline the very first segment of a journal has no predecessor to sync; rotation seals the old segment (trim+sync+close), and Open syncs a trimmed one, before reaching this helper
func (w *WAL) createSegmentLocked(seq uint64) error {
	f, err := w.fs.Create(w.segPath(seq))
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", seq, err)
	}
	off := int64(len(segMagic))
	_, err = f.WriteAt([]byte(segMagic), 0)
	if err == nil {
		_, err = f.WriteAt(zeroFill[:], off)
	}
	if err == nil {
		err = f.SyncData()
	}
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: zero-fill segment %d: %w", seq, err)
	}
	// Make the directory entry durable: a segment whose frames are
	// fsynced but whose name is not survives nothing.
	if err := w.fs.SyncDir(w.dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	w.active, w.seq, w.off, w.size = f, seq, off, segChunk
	return nil
}

// appendFrame renders one frame onto b.
func appendFrame(b []byte, epoch uint64, payload []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = append(b, payload...)
	sum := frameDigest(epoch, payload)
	return append(b, sum[:]...)
}

func frameDigest(epoch uint64, payload []byte) digest.Digest {
	return digest.NewHasher(digest.DomainWALFrame).Uint64(epoch).Bytes(payload).Sum()
}

// Append journals one record under the given epoch, rotating first if
// the frame does not fit in the active segment. Under SyncEachAppend
// the frame is durable when Append returns nil; any error means the
// record may not survive a crash and the caller must degrade (the
// auditor falls back to per-operation synchronous verification).
//
// Epochs must be non-decreasing per caller; that is what lets a
// sealed segment be dropped once its newest epoch is covered.
func (w *WAL) Append(epoch uint64, payload []byte) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.appendEr != nil {
		err := w.appendEr
		w.mu.Unlock()
		return err
	}
	frame := appendFrame(w.frame, epoch, payload)
	w.frame = binenc.Recycle(frame)
	if w.off > int64(len(segMagic)) && w.off+int64(len(frame)) > w.size {
		if err := w.rotateLocked(); err != nil {
			w.appendEr = err
			w.mu.Unlock()
			return err
		}
	}
	// A frame larger than a fresh segment's zeros extends the file; its
	// flush carries the size change, and the next frame rotates.
	if _, err := w.active.WriteAt(frame, w.off); err != nil {
		w.appendEr = fmt.Errorf("wal: append: %w", err)
		err = w.appendEr
		w.mu.Unlock()
		return err
	}
	w.off += int64(len(frame))
	w.size = max(w.size, w.off)
	w.written++
	w.lastEp = max(w.lastEp, epoch)
	mine := w.written
	lazy := w.policy == SyncOnRotate && epoch <= w.flushedEp
	w.mu.Unlock()

	if lazy {
		return nil
	}
	return w.syncThrough(mine)
}

// syncThrough is the group-commit path: make every frame up to at
// least seq durable. The first caller in becomes the leader and syncs
// for everyone queued behind it; followers find their frame already
// covered and return without touching the disk. The flush is data-only:
// the frames overwrote zeros already on disk, so no metadata rides it
// (and if a frame larger than a segment grew the file, fdatasync still
// carries the size).
func (w *WAL) syncThrough(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.synced >= seq {
		w.mu.Unlock()
		return nil
	}
	if w.appendEr != nil {
		err := w.appendEr
		w.mu.Unlock()
		return err
	}
	f, high, highEp, seg := w.active, w.written, w.lastEp, w.seq
	w.mu.Unlock()

	if err := f.SyncData(); err != nil {
		w.mu.Lock()
		if w.seq != seg {
			// The segment rotated under us; rotation synced and closed
			// it, which both covers our frame and explains the error.
			w.mu.Unlock()
			return nil
		}
		if w.appendEr == nil {
			w.appendEr = fmt.Errorf("wal: sync: %w", err)
		}
		err = w.appendEr
		w.mu.Unlock()
		return err
	}
	w.mu.Lock()
	w.synced = max(w.synced, high)
	w.flushedEp = max(w.flushedEp, highEp)
	w.mu.Unlock()
	return nil
}

// rotateLocked seals the active segment — trim, sync, close, record —
// and opens the next one. Caller holds mu. The segment is recorded
// under the newest epoch appended so far: its own newest frame's, as
// epochs do not decrease, and never less.
func (w *WAL) rotateLocked() error {
	err := sealSegment(w.active, w.off)
	w.active = nil // closed either way; on failure the caller's sticky error guards every later use
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	w.synced, w.flushedEp = w.written, w.lastEp
	w.sealed = append(w.sealed, segment{seq: w.seq, maxEpoch: w.lastEp})
	return w.createSegmentLocked(w.seq + 1)
}

// TruncateThrough unlinks every sealed segment whose newest frame
// belongs to an epoch <= epoch. The active segment is never touched.
// Callers must only truncate epochs whose obligations are covered by a
// durable cursor (WriteCursor) — the syncdiscipline of recovery, not
// of this package.
func (w *WAL) TruncateThrough(epoch uint64) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	var drop []segment
	for _, s := range w.sealed {
		if s.maxEpoch <= epoch {
			drop = append(drop, s)
		}
	}
	w.mu.Unlock()
	if len(drop) == 0 {
		return nil
	}
	removed := make(map[uint64]bool, len(drop))
	var firstErr error
	for _, s := range drop {
		if err := w.fs.Remove(w.segPath(s.seq)); err != nil {
			firstErr = fmt.Errorf("wal: truncate segment %d: %w", s.seq, err)
			break
		}
		removed[s.seq] = true
	}
	if firstErr == nil {
		if err := w.fs.SyncDir(w.dir); err != nil {
			firstErr = fmt.Errorf("wal: truncate dir sync: %w", err)
		}
	}
	w.mu.Lock()
	var left []segment
	for _, s := range w.sealed {
		if !removed[s.seq] {
			left = append(left, s)
		}
	}
	w.sealed = left
	w.mu.Unlock()
	return firstErr
}

// Frees reports whether TruncateThrough(epoch) would unlink a sealed
// segment — the one reason for a caller to write a cursor at epoch.
func (w *WAL) Frees(epoch uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.sealed {
		if s.maxEpoch <= epoch {
			return true
		}
	}
	return false
}

// sealSegment trims f to end, the end of its last frame, fully syncs it
// and closes it, so a sealed segment carries no zero fill. f is closed
// even when the trim or the sync fails.
func sealSegment(f durable.File, end int64) error {
	err := f.Truncate(end)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close seals the active segment (trim, final sync) and closes the
// journal. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	f, end := w.active, w.off
	w.active = nil
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	return sealSegment(f, end)
}

// Record is one replayed journal entry.
type Record struct {
	Epoch   uint64
	Payload []byte
}

// segScan is the result of scanning one segment file.
type segScan struct {
	frames   uint64
	maxEpoch uint64
	tornAt   int64 // byte offset of the torn tail; -1 if the file is clean
}

// scanSegment validates one segment with plain os reads. In a final
// segment any invalid suffix (bad magic, short frame, checksum
// mismatch) is a torn tail; in an earlier segment it is corruption.
func scanSegment(path string, final bool) (segScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segScan{}, fmt.Errorf("wal: read %s: %w", filepath.Base(path), err)
	}
	info := segScan{tornAt: -1}
	recs, torn, perr := parseSegment(data)
	if perr != nil && !final {
		return segScan{}, fmt.Errorf("wal: %s: %w", filepath.Base(path), perr)
	}
	info.frames = uint64(len(recs))
	for _, r := range recs {
		if r.Epoch > info.maxEpoch {
			info.maxEpoch = r.Epoch
		}
	}
	if torn >= 0 {
		info.tornAt = torn
	}
	return info, nil
}

// parseSegment decodes every valid frame of one segment image. It
// returns the clean records, the byte offset of the first invalid
// suffix (-1 if none), and a description of that suffix for callers
// that must treat it as corruption rather than a torn tail.
func parseSegment(data []byte) (recs []Record, tornAt int64, tornErr error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, 0, errors.New("bad segment magic")
	}
	off := int64(len(segMagic))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, -1, nil
		}
		if len(rest) < 16 {
			return recs, off, errors.New("torn frame header")
		}
		n := binary.BigEndian.Uint64(rest[0:8])
		if n > maxFrameBytes {
			return recs, off, fmt.Errorf("implausible frame length %d", n)
		}
		epoch := binary.BigEndian.Uint64(rest[8:16])
		if uint64(len(rest)-16) < n+digest.Size {
			return recs, off, errors.New("torn frame body")
		}
		payload := rest[16 : 16+n]
		var footer digest.Digest
		copy(footer[:], rest[16+n:16+n+digest.Size])
		if frameDigest(epoch, payload) != footer {
			return recs, off, errors.New("frame checksum mismatch")
		}
		recs = append(recs, Record{Epoch: epoch, Payload: append([]byte(nil), payload...)})
		off += int64(16 + n + digest.Size)
	}
}

// Replay streams every intact record of the journal at dir, oldest
// first, with reboot semantics (plain os reads). A torn tail on the
// final segment ends the replay cleanly; invalid frames on earlier
// segments are corruption and error out. fn's error aborts the replay.
func Replay(dir string, fn func(rec Record) error) error {
	seqs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i, seq := range seqs {
		final := i == len(seqs)-1
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			return fmt.Errorf("wal: read %s: %w", segName(seq), err)
		}
		recs, _, perr := parseSegment(data)
		if perr != nil && !final {
			return fmt.Errorf("wal: %s: %w", segName(seq), perr)
		}
		for _, r := range recs {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}
