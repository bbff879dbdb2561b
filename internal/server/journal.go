package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/wal"
	"trustedcvs/internal/wire"
)

// The op journal is the server-side half of the crash-durable story:
// the periodic snapshot (persist.go) loses every operation applied
// after the last save, and on restart each client's next sync would —
// correctly, but needlessly — raise a rollback alarm over that acked
// tail. Journaling every applied request (and every accepted content
// push — the blobs of acked commits must survive alongside their
// authenticated records) lets recovery re-apply the tail on top of
// the restored snapshot, shrinking the rollback window from one save
// interval to at most one journal epoch.
//
// The journal deliberately does NOT fsync per operation: frames are
// batched and flushed once per epoch, by the first append of the next
// one (wal.SyncOnRotate), so the hot path waits on the disk once an
// epoch. The durability contract is therefore weaker than the
// client-side audit WAL — a hard crash can lose the current epoch's
// tail — and that is fine: clients hold the authoritative per-op
// durable record of their own obligations; the server journal only
// narrows the honest-crash rollback window.

// DefaultJournalEpoch is the flush batch for deployments that
// do not run epoch-batched audit (no -epoch-len to align with).
const DefaultJournalEpoch = 64

// journalEntry is one applied operation as the journal records it: the
// request plus the global counter its apply landed on. The counter
// keys replay ordering — concurrent handlers append out of order.
// Alternatively (Push set, G zero) it is one accepted content push:
// the blobs of acked commits must survive the same crashes their
// authenticated records do, or recovery restores a history whose
// content is gone.
type journalEntry struct {
	G    uint64
	Req  *core.OpRequest
	Push *core.PushContentRequest
}

// entryFormat is the first byte of every journal entry and names its
// layout:
//
//	entryFormat | uvarint G | request (tag + body)
//
// the request — a *core.OpRequest, or a *core.PushContentRequest with
// G zero — as internal/wire encodes it on the network. Earlier binaries
// journaled a bare gob stream, which never opens with this byte (gob
// leads with a length that is below 0x80 or in 0xF8–0xFF).
const entryFormat = 0x84

// ErrJournalFormat is returned when replaying an op journal whose
// entries were written in an earlier format; drain it (start, then
// checkpoint) with the binary that wrote it.
var ErrJournalFormat = errors.New("server: op journal holds entries in an older format; drain it with the previous binary")

// appendEntry appends one entry's journal form to b; req is the
// *core.OpRequest or *core.PushContentRequest.
func appendEntry(b []byte, g uint64, req any) ([]byte, error) {
	return wire.Append(binary.AppendUvarint(append(b, entryFormat), g), req)
}

// decodeEntry parses one journal entry. The entry's byte fields are
// windows onto b.
func decodeEntry(b []byte) (journalEntry, error) {
	if len(b) == 0 || b[0] != entryFormat {
		return journalEntry{}, ErrJournalFormat
	}
	r := binenc.NewReader(b[1:])
	e := journalEntry{G: r.Uvarint()}
	switch req := wire.Read(r).(type) {
	case *core.OpRequest:
		e.Req = req
	case *core.PushContentRequest:
		e.Push = req
	default:
		r.Fail("%T where a request belongs", req)
	}
	if err := r.Close(); err != nil {
		return journalEntry{}, fmt.Errorf("server: decode journal entry: %w", err)
	}
	return e, nil
}

// OpJournal appends every successfully applied operation to a
// segmented WAL (internal/wal), batching flushes per epoch.
// Append failures are sticky: the journal disables itself rather than
// stalling or crashing the serving path, and Err exposes the
// degradation so the operator can see durability has narrowed back to
// checkpoint cadence.
type OpJournal struct {
	epochLen uint64

	mu  sync.Mutex
	w   *wal.WAL
	er  error
	buf []byte // entry-assembly buffer, reused under mu
}

// OpenOpJournal opens (creating or repairing) the op journal at dir.
// epochLen aligns fsync batching and truncation with the deployment's
// audit epochs (0 = DefaultJournalEpoch). fs is the filesystem to
// journal through (nil = the real one).
func OpenOpJournal(dir string, fs durable.FS, epochLen uint64) (*OpJournal, error) {
	if epochLen == 0 {
		epochLen = DefaultJournalEpoch
	}
	w, err := wal.Open(wal.Options{Dir: dir, FS: fs, Sync: wal.SyncOnRotate})
	if err != nil {
		return nil, fmt.Errorf("server: open op journal: %w", err)
	}
	return &OpJournal{epochLen: epochLen, w: w}, nil
}

// record journals one applied operation. Called by the decorator after
// the protocol server has acked the op; errors flip the sticky degrade
// state instead of failing the operation (the client already holds its
// own durable obligation record).
func (j *OpJournal) record(req *core.OpRequest, resp any) {
	g := appliedG(resp)
	if g == 0 {
		return // not a Protocol II response; nothing to key replay on
	}
	j.append((g-1)/j.epochLen, g, req)
}

// RecordPush journals one accepted content push. ctr is the database
// counter at record time; it only keys fsync batching and truncation —
// a push journaled at counter c lands in an epoch no checkpoint below
// c can truncate, and a checkpoint above c snapshots the store with
// the push already in it, so either the snapshot or the journal holds
// every acked blob. Errors degrade exactly as record's do.
func (j *OpJournal) RecordPush(req *core.PushContentRequest, ctr uint64) {
	j.append(ctr/j.epochLen, 0, req)
}

// append encodes one entry into the journal's buffer and appends it;
// the WAL copies the payload into its own frame, so the buffer is free
// again when the lock drops.
func (j *OpJournal) append(epoch, g uint64, req any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.er != nil {
		return
	}
	payload, err := appendEntry(j.buf, g, req)
	if err != nil {
		j.er = fmt.Errorf("server: encode journal entry: %w", err)
		return
	}
	j.buf = binenc.Recycle(payload)
	if err := j.w.Append(epoch, payload); err != nil {
		j.er = err
	}
}

// Err reports the sticky failure that disabled the journal, if any.
func (j *OpJournal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.er
}

// TruncateThrough drops journal segments fully covered by a durable
// checkpoint at global counter ctr. Epoch e holds counters
// (e·len, (e+1)·len], so only epochs whose last counter is ≤ ctr go.
func (j *OpJournal) TruncateThrough(ctr uint64) error {
	if ctr < j.epochLen {
		return nil
	}
	return j.w.TruncateThrough(ctr/j.epochLen - 1)
}

// Close seals the journal, fsyncing any batched tail.
func (j *OpJournal) Close() error { return j.w.Close() }

// WithOpJournal decorates a server so every successfully applied
// operation is recorded in j before the response is released. Composes
// with WithOpHook; wrap the honest server (checkpointing unwraps both).
func WithOpJournal(s Server, j *OpJournal) Server {
	return &journaled{Server: s, j: j}
}

type journaled struct {
	Server
	j *OpJournal
}

func (h *journaled) HandleOp(req *core.OpRequest) (any, error) {
	//lint:ignore verifyflow the server applies client ops to its own UNtrusted store by design; integrity is enforced client-side by VO verification against pinned registers (AUDIT.md "server trusted with nothing")
	resp, err := h.Server.HandleOp(req)
	if err == nil {
		h.j.record(req, resp)
	}
	return resp, err
}

// Fork drops the journal: a fork's history is the adversary's private
// fiction, and replaying it over the honest snapshot would corrupt the
// very state the journal exists to protect.
func (h *journaled) Fork() Server { return h.Server.Fork() }

// appliedG extracts the post-apply counter from a Protocol II response
// (Ctr is the pre-op counter).
func appliedG(resp any) uint64 {
	r, ok := resp.(*core.OpResponseII)
	if !ok {
		return 0
	}
	return r.Ctr + 1
}

// ReplayOpJournal re-applies, in counter order, every journaled
// operation above the restored server's head, and re-pushes every
// journaled content blob into store. Op replay stops cleanly at the
// first counter gap: everything past a lost frame was never made
// durable as a batch, and applying it out of order would fabricate a
// history no client ever acked. Push replay is unconditional — the
// store is a content-addressed map and a push's path and revision are
// labels, so re-pushing what the snapshot already holds is a no-op and
// a stray blob past a gap is unreferenced storage, never state.
// Returns how many operations and pushes were re-applied. Call before
// opening the journal for appending and before the transport starts
// serving.
func ReplayOpJournal(dir string, s Server, store *cvs.Store) (int, int, error) {
	from := s.DB().Ctr()
	var entries []journalEntry
	pushes := 0
	err := wal.Replay(dir, func(fr wal.Record) error {
		e, err := decodeEntry(fr.Payload)
		if err != nil {
			return err
		}
		if e.Push != nil {
			if err := store.Push(e.Push.Path, e.Push.Rev, e.Push.Content); err != nil {
				return fmt.Errorf("server: replay journal push %s@%d: %w", e.Push.Path, e.Push.Rev, err)
			}
			pushes++
			return nil
		}
		if e.G > from {
			entries = append(entries, e)
		}
		return nil
	})
	if err != nil {
		return 0, pushes, err
	}
	sort.Slice(entries, func(i, k int) bool { return entries[i].G < entries[k].G })
	applied := 0
	next := from + 1
	for _, e := range entries {
		if e.G < next {
			continue // duplicate frame (rewritten after a partial truncate)
		}
		if e.G > next {
			break // gap: the tail past a lost frame is unusable
		}
		if _, err := s.HandleOp(e.Req); err != nil {
			return applied, pushes, fmt.Errorf("server: replay journal op %d: %w", e.G, err)
		}
		applied++
		next++
	}
	return applied, pushes, nil
}
