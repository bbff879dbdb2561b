package server

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wal"
)

// Durable is an honest Protocol II server's durable record: two
// snapshot generations at path and durable.PrevPath(path), and the op
// journal in path+".journal". It owns the whole life of that record —
// open, journal, checkpoint, close — so one piece of code decides what
// the server's durable state is.
//
// The invariant it keeps: each verifiable generation, with the journal
// replayed over it, reaches every op the journal made durable. A
// checkpoint therefore truncates the journal only through what both
// generations cover — the older one's counter — and a checkpoint over
// a newest file Open could not verify replaces it without rotating it
// over the good previous generation.
type Durable struct {
	path     string
	epochLen uint64
	srv      Server
	store    *cvs.Store
	sessions *transport.SessionTable

	from             string // the generation Open restored ("" = started empty)
	replayed, pushed int    // what Open re-applied from the journal

	w    *wal.WAL
	jmu  sync.Mutex // serializes appends; guards jerr and buf
	jerr error      // sticky: the failure that disabled the journal
	buf  []byte     // entry-assembly buffer, reused under jmu

	cmu      sync.Mutex // serializes checkpoints and Close
	newest   uint64     // the counter of the generation at path, when newestOK
	newestOK bool       // the generation at path is one this record verified or wrote
	closed   bool
}

// errDurableClosed is returned by a checkpoint after Close.
var errDurableClosed = errors.New("server: durable record closed")

// OpenDurable opens the record whose newest snapshot generation is at
// path: it loads the newest verifiable generation (or, when none exists
// at all, starts from an empty database of the given Merkle order),
// restores the session table with it, replays the journal over it — ops
// in counter order, and every pushed blob the store lacks — and opens
// the journal for appending. epochLen batches the journal's fsyncs and keys its
// truncation (0 = 64 ops). Generations that exist but none of which
// verifies, or an older-format snapshot or journal, are refused: they
// are never taken for a first boot.
func OpenDurable(path string, order int, epochLen uint64) (*Durable, error) {
	if epochLen == 0 {
		epochLen = defaultJournalEpoch
	}
	d := &Durable{path: path, epochLen: epochLen}
	snap, from, err := loadNewest(path)
	switch {
	case err == nil:
		if d.srv, d.store, d.sessions, err = RestoreP2(snap); err != nil {
			return nil, fmt.Errorf("server: restore %s: %w", from, err)
		}
		d.from = from
		d.newest, d.newestOK = snap.DB.Ctr, from == path
	case errors.Is(err, errNoSnapshot):
		d.srv, d.store, d.sessions = NewP2(vdb.New(order)), cvs.NewStore(), transport.NewSessionTable()
	default:
		return nil, err
	}
	dir := path + ".journal"
	if d.replayed, d.pushed, err = replayJournal(dir, d.srv, d.store); err != nil {
		return nil, fmt.Errorf("server: replay op journal %s: %w", dir, err)
	}
	if d.w, err = wal.Open(wal.Options{Dir: dir, Sync: wal.SyncOnRotate}); err != nil {
		return nil, fmt.Errorf("server: open op journal: %w", err)
	}
	return d, nil
}

// Server returns the restored honest Protocol II server.
func (d *Durable) Server() Server { return d.srv }

// Store returns the restored content store.
func (d *Durable) Store() *cvs.Store { return d.store }

// Sessions returns the restored session table; the transport serving
// the record must dispatch through it, or a checkpoint is no
// consistent cut.
func (d *Durable) Sessions() *transport.SessionTable { return d.sessions }

// Recovered reports what Open restored: the snapshot generation it
// loaded ("" for an empty start), and how many ops and content pushes
// it replayed from the journal on top of it.
func (d *Durable) Recovered() (from string, ops, pushes int) {
	return d.from, d.replayed, d.pushed
}

// Handler wraps h, the request handler serving this record's server
// and store, so that every request it acknowledges is journaled before
// the acknowledgement is released. It is the one point that sees all
// three ways state changes: a plain op, recorded under the counter its
// apply landed on; a content push on its own; and the blobs riding
// with a commit, each recorded as the PushContentRequest its client
// could have sent ahead of it. A push is recorded under the counter at
// record time: a checkpoint cut above that counter already holds the
// blob, and none below it can truncate the push's epoch.
func (d *Durable) Handler(h transport.Handler) transport.Handler {
	return func(req any) (any, error) {
		resp, err := h(req)
		if err != nil {
			return resp, err
		}
		switch r := req.(type) {
		case *core.OpRequest:
			d.recordOp(r, resp)
		case *core.RiderRequest:
			for _, blob := range r.Blobs {
				d.recordPush(&core.PushContentRequest{Content: blob})
			}
			d.recordOp(&r.OpRequest, resp)
		case *core.PushContentRequest:
			d.recordPush(r)
		}
		return resp, nil
	}
}

func (d *Durable) recordOp(req *core.OpRequest, resp any) {
	if g := appliedG(resp); g != 0 {
		d.append((g-1)/d.epochLen, g, req)
	}
}

func (d *Durable) recordPush(req *core.PushContentRequest) {
	d.append(d.srv.DB().Ctr()/d.epochLen, 0, req)
}

// append encodes one entry into the journal's buffer and appends it;
// the WAL copies the payload into its own frame, so the buffer is free
// again when the lock drops. Failures are sticky: the journal disables
// itself rather than stalling or failing the serving path (the client
// already holds its own durable obligation record), and Err exposes the
// degradation.
func (d *Durable) append(epoch, g uint64, req any) {
	d.jmu.Lock()
	defer d.jmu.Unlock()
	if d.jerr != nil {
		return
	}
	payload, err := appendEntry(d.buf, g, req)
	if err != nil {
		d.jerr = fmt.Errorf("server: encode journal entry: %w", err)
		return
	}
	d.buf = binenc.Recycle(payload)
	if err := d.w.Append(epoch, payload); err != nil {
		d.jerr = err
	}
}

// Err reports the sticky failure that disabled the journal, if any:
// durability has narrowed back to checkpoint cadence.
func (d *Durable) Err() error {
	d.jmu.Lock()
	defer d.jmu.Unlock()
	return d.jerr
}

// Checkpoint takes the consistent cut under the session-table freeze,
// writes it as the newest generation (the one it replaces is kept as
// the previous generation), and truncates the journal through what
// both generations cover. It returns the checkpointed counter.
func (d *Durable) Checkpoint() (uint64, error) {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	if d.closed {
		return 0, errDurableClosed
	}
	return d.checkpointLocked()
}

func (d *Durable) checkpointLocked() (uint64, error) {
	snap, err := CheckpointP2(d.srv, d.store, d.sessions)
	if err != nil {
		return 0, err
	}
	rotate := d.newestOK
	if err := durable.WriteFileAtomic(durable.OS, d.path, rotate, func(w io.Writer) error {
		return EncodeP2Snapshot(w, snap)
	}); err != nil {
		return 0, err
	}
	covered := d.newest
	d.newest, d.newestOK = snap.DB.Ctr, true
	if !rotate || covered < d.epochLen {
		return snap.DB.Ctr, nil
	}
	// Epoch e holds counters (e·len, (e+1)·len], so only epochs whose
	// last counter is ≤ covered go.
	return snap.DB.Ctr, d.w.TruncateThrough(covered/d.epochLen - 1)
}

// Close checkpoints and seals the journal, fsyncing the tail batching
// deferred. The caller drains the transport first, so no op is
// acknowledged past the final cut.
func (d *Durable) Close() error {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	_, err := d.checkpointLocked()
	return errors.Join(err, d.w.Close())
}
