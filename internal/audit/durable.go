// Durable audit pipeline: the WAL-backed half of the auditor.
//
// The epoch auditor's queue is the only copy of every unverified
// obligation, so a crash silently un-audits operations whose answers
// were already delivered — the exact trust gap the synchronous barrier
// existed to close. With a journal directory configured, Submit
// appends each record to a checksummed segmented WAL (internal/wal)
// and makes it durable BEFORE the optimistic answer is released; on
// restart the journal is replayed from the last durable cursor and
// every surviving obligation is re-verified, so the exposure window
// provably closes across the crash. If a tampered response was
// answered optimistically and the process died before verification,
// the tampered bytes are already on disk and recovery convicts the
// server anyway.
//
// The durable cursor pairs the highest closed epoch with the user's
// marshaled protocol state at that epoch's boundary cut. Replay
// restores the user to the cut and re-runs verification of every
// frame past it — byte-for-byte the same checks, so recovery can
// neither miss a deviation nor invent one. Because closure of an
// epoch needs this client's own boundary report, a cursor at epoch E
// implies that report reached the broadcast hub before the crash; a
// restarted client therefore resumes with a fresh hub session whose
// full-history replay re-delivers every peer report it needs
// (broadcast.DialHubResume). The in-process Hub keeps no history, so
// durable recovery requires the TCP hub.
//
// On any journal I/O error the auditor flips to degrade-to-sync:
// records are still verified — Submit blocks until its record has
// been audited, restoring the synchronous per-op barrier — but
// nothing is silently lost. The transition is sticky and visible as
// DurabilityDegradedSync in Stats.
package audit

import (
	"encoding/binary"
	"errors"
	"fmt"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wal"
	"trustedcvs/internal/wire"
)

// DurabilityState is the auditor's crash-durability mode, exposed via
// Stats.
type DurabilityState int

const (
	// DurabilityVolatile: no journal configured; queued records do not
	// survive a crash (the pre-WAL behavior).
	DurabilityVolatile DurabilityState = iota
	// DurabilityWAL: every record is checksummed and fsynced to the
	// journal before its optimistic answer is released.
	DurabilityWAL
	// DurabilityDegradedSync: the journal failed; Submit now blocks
	// until its record has been verified — per-operation synchronous
	// audit, never silent loss.
	DurabilityDegradedSync
)

func (d DurabilityState) String() string {
	switch d {
	case DurabilityWAL:
		return "wal"
	case DurabilityDegradedSync:
		return "degraded-sync"
	default:
		return "volatile"
	}
}

// Cursor is the durable resume point of an audit journal: the highest
// epoch whose closure check passed before it was written, and the
// user's marshaled protocol state at that epoch's boundary cut. On
// disk (inside wal's checksummed cursor file) it is
//
//	cursorFormat | varint(epoch) | bytes(state)
type Cursor struct {
	Epoch int64
	State []byte
}

// cursorFormat opens a cursor payload; see recordFormat for why no
// older cursor can start with it.
const cursorFormat = 0x8A

func (c *Cursor) encode() []byte {
	return binenc.AppendBytes(binary.AppendVarint([]byte{cursorFormat}, c.Epoch), c.State)
}

// LoadCursor reads the audit journal's cursor at dir. A nil Cursor
// with nil error means no cursor has ever been written (fresh
// journal). Callers restore the user from Cursor.State before
// constructing the Auditor so replay re-verifies from the right cut.
func LoadCursor(dir string) (*Cursor, error) {
	payload, ok, err := wal.ReadCursor(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	if len(payload) == 0 || payload[0] != cursorFormat {
		return nil, ErrJournalFormat
	}
	r := binenc.NewReader(payload[1:])
	cur := &Cursor{Epoch: r.Varint(), State: r.Bytes()}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("audit: decode cursor: %w", err)
	}
	return cur, nil
}

// recordFormat is the first byte of every journaled record and names
// its layout:
//
//	recordFormat | operation (tag + body) | response (tag + body)
//
// both halves as internal/wire encodes them on the network, the
// response a *core.OpResponseII. Earlier binaries journaled a gob
// stream behind 0x82, and before that a bare gob stream (which opens
// with a length that is either below 0x80 or a negated byte count,
// 0xF8–0xFF), so no older record can pass for a current one. A record
// whose frame checksum holds but whose body does not decode — a
// sharded database's cross-shard transaction or response — was written
// by another binary too, and is refused the same way.
const recordFormat = 0x83

// ErrJournalFormat is returned when opening a journal whose cursor or
// surviving records were written in an earlier format. They are
// refused at open and never reach the verifier, where an honest
// server's old bytes could only be misjudged; drain the journal with
// the binary that wrote it.
var ErrJournalFormat = errors.New("audit: journal holds a cursor or records in an older format; drain it with the previous binary")

// appendRecord appends one obligation's journal form to b. Seals are
// never journaled: a restarted client re-seals on its own schedule.
func appendRecord(b []byte, r Record) ([]byte, error) {
	b, err := wire.Append(append(b, recordFormat), r.Op)
	if err == nil {
		b, err = wire.Append(b, r.Resp)
	}
	if err != nil {
		return nil, fmt.Errorf("audit: encode record: %w", err)
	}
	return b, nil
}

// decodeRecord parses one journaled record. The Record keeps windows
// onto b, which the caller must not reuse.
func decodeRecord(b []byte) (Record, error) {
	if len(b) == 0 || b[0] != recordFormat {
		return Record{}, ErrJournalFormat
	}
	r := binenc.NewReader(b[1:])
	op, resp := vdb.ReadWireOp(r), wire.Read(r)
	if err := r.Close(); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrJournalFormat, err)
	}
	if resp, ok := resp.(*core.OpResponseII); ok {
		return Record{Op: op, Resp: resp}, nil
	}
	return Record{}, fmt.Errorf("audit: decode journaled record: %T does not answer %T", resp, op)
}

// AppendRaw appends one obligation frame to the journal at dir exactly
// as a live auditor's Submit would, without an Auditor attached —
// crash-harness support for planting a record "between" answer release
// and verification, the race a real crash loses. epoch is the 0-based
// audit epoch the record's claimed counter lands in.
func AppendRaw(dir string, rec Record, epoch uint64) error {
	payload, err := appendRecord(nil, rec)
	if err != nil {
		return err
	}
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	if err := w.Append(epoch, payload); err != nil {
		_ = w.Close()
		return err
	}
	return w.Close()
}

// claimedG extracts the record's claimed post-operation global counter
// — untrusted, but a lie only mislabels the journal frame's epoch and
// is convicted by verification either way.
func claimedG(r Record) uint64 { return r.Resp.Ctr + 1 }

// initDurable arms the journal: load the cursor, decode every frame
// past it for re-verification, repair and reopen the journal for
// appending. Called from New before the worker starts.
func (a *Auditor) initDurable(dir string, fs durable.FS) error {
	cur, err := LoadCursor(dir)
	if err != nil {
		return err
	}
	ckpt := int64(-1)
	if cur != nil {
		ckpt = cur.Epoch
		a.emitted = cur.Epoch
		a.maxEpoch = cur.Epoch
		a.completed = cur.Epoch
	}
	var pending []Record
	err = wal.Replay(dir, func(fr wal.Record) error {
		if int64(fr.Epoch) <= ckpt {
			return nil // durably closed before the crash
		}
		rec, err := decodeRecord(fr.Payload)
		if err != nil {
			return err
		}
		pending = append(pending, rec)
		return nil
	})
	if err != nil {
		return err
	}
	w, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	if err != nil {
		return err
	}
	a.wal = w
	a.walDir = dir
	a.walFS = fs
	a.lastCkpt = ckpt
	a.cuts = make(map[uint64][]byte)
	a.replayQ = pending
	a.recovering = len(pending) > 0
	// Any restart (a cursor or surviving frames) may have left a now-
	// stale seal in the hub log; the worker retracts it first thing.
	a.retract = cur != nil || len(pending) > 0
	return nil
}

// feedRecovery re-submits every journaled obligation that survived the
// crash, in journal order, ahead of any live Submit (which blocks on
// the recovering flag — order is what makes the counter checks
// replayable). Runs on its own goroutine.
func (a *Auditor) feedRecovery() {
	defer a.wg.Done()
	for _, rec := range a.replayQ {
		a.mu.Lock()
		a.submitted++
		a.replayed++
		a.mu.Unlock()
		select {
		case a.ch <- rec:
		case <-a.done:
			return
		}
	}
	a.replayQ = nil
	a.mu.Lock()
	a.recovering = false
	a.cond.Broadcast()
	a.mu.Unlock()
}

// walAppend journals one record before its answer is released; the
// frame is durable when it returns nil. The record is encoded into a
// buffer kept across calls — Submit's callers serialize, and the
// journal copies the payload into its own frame before returning.
func (a *Auditor) walAppend(rec Record) error {
	payload, err := appendRecord(a.recBuf, rec)
	if err != nil {
		return err
	}
	a.recBuf = binenc.Recycle(payload)
	return a.wal.Append(a.epochOf(claimedG(rec)), payload)
}

// noteWALFailure flips the sticky degrade-to-sync state.
func (a *Auditor) noteWALFailure(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.degradedSync {
		a.degradedSync = true
		a.walErr = err
	}
}

// waitRecoveredLocked holds Submit and Seal callers back until the
// recovery feeder has re-queued every journaled obligation. Caller
// holds the gate.
func (a *Auditor) waitRecoveredLocked() {
	for a.recovering && a.failed == nil && !a.closed {
		a.cond.Wait()
	}
}

// waitProcessed blocks until the auditor has drained everything
// submitted so far — the degrade-to-sync barrier: a record that could
// not be journaled must be verified before its answer is released.
func (a *Auditor) waitProcessed() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.failed == nil && !a.closed && a.audited < a.submitted {
		a.cond.Wait()
	}
	if a.failed != nil {
		return a.failed
	}
	if a.closed {
		return ErrClosed
	}
	return nil
}

// stashCut records the user's marshaled state at the boundary cut
// closing epoch ep, so the checkpointer can pair it with the epoch
// once its closure check passes. Worker-owned state, no locks.
func (a *Auditor) stashCut(ep uint64) {
	if a.wal == nil {
		return
	}
	st, err := a.user.MarshalState()
	if err != nil {
		a.fail(fmt.Errorf("audit: marshal boundary state: %w", err))
		return
	}
	a.cuts[ep] = st
}

// stashSeal records the user's final state; it stands in for the cut
// of every epoch the sealed client never crossed.
func (a *Auditor) stashSeal() {
	if a.wal == nil {
		return
	}
	st, err := a.user.MarshalState()
	if err != nil {
		a.fail(fmt.Errorf("audit: marshal seal state: %w", err))
		return
	}
	a.sealState = st
}

// maybeCheckpoint advances the durable cursor to the newest closed
// epoch and truncates the journal segments it covers — but only when
// that frees a sealed segment, or when the auditor is stopping. A
// cursor that frees nothing would only shorten a post-crash replay,
// which is already bounded: frames past the cursor span at most one
// segment plus the open window. Recovering from an older cursor is the
// path a crash between two cursor writes takes anyway. Runs on the
// worker between batches (and once more at Stop), never inside the
// gate: cursor and segment I/O are too slow for a critical section.
func (a *Auditor) maybeCheckpoint(stopping bool) {
	if a.wal == nil {
		return
	}
	a.mu.Lock()
	target := a.completed
	degraded := a.degradedSync
	a.mu.Unlock()
	if target <= a.lastCkpt || degraded {
		return
	}
	// Only the newest closed epoch's cut can ever be written.
	for ep := range a.cuts {
		if int64(ep) < target {
			delete(a.cuts, ep)
		}
	}
	if !stopping && !a.wal.Frees(uint64(target)) {
		return
	}
	state, ok := a.cuts[uint64(target)]
	if !ok {
		// Closure came from this client's seal standing in for epochs
		// it never crossed; the seal state IS the cut state for all of
		// them.
		state = a.sealState
	}
	if state == nil {
		return
	}
	cur := Cursor{Epoch: target, State: state}
	if err := wal.WriteCursor(a.walFS, a.walDir, cur.encode()); err != nil {
		a.noteWALFailure(err)
		return
	}
	// Frames of epochs <= target are covered by the cursor; drop their
	// segments. A crash between cursor write and unlink leaves stale
	// frames that replay skips by epoch — harmless.
	if err := a.wal.TruncateThrough(uint64(target)); err != nil && !errors.Is(err, wal.ErrClosed) {
		a.noteWALFailure(err)
	}
	delete(a.cuts, uint64(target))
	a.lastCkpt = target
}

// closeDurable finalizes the journal at Stop: one last checkpoint
// (the worker is quiesced, so worker-owned state is safe to touch)
// and a clean close.
func (a *Auditor) closeDurable() {
	if a.wal == nil {
		return
	}
	a.maybeCheckpoint(true)
	_ = a.wal.Close()
}
