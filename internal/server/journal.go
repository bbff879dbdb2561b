package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/wal"
	"trustedcvs/internal/wire"
)

// The op journal is the server's record: every acknowledged operation
// and every accepted content push (the blobs of acked commits must
// survive alongside their authenticated records), in an internal/wal
// journal beside the snapshot. The snapshot is a cached, checkable
// prefix of it — recovery re-applies the journal's tail on top of the
// newest verifiable generation, so an honest crash costs at most the
// journal's unflushed epoch instead of one save interval.
//
// The journal deliberately does NOT fsync per operation: frames are
// batched and flushed once per epoch, by the first append of the next
// one (wal.SyncOnRotate), so the hot path waits on the disk once an
// epoch. The durability contract is therefore weaker than the
// client-side audit WAL — a hard crash can lose the current epoch's
// tail — and that is fine: clients hold the authoritative per-op
// durable record of their own obligations; the server journal only
// narrows the honest-crash rollback window.

// defaultJournalEpoch is the flush batch for deployments that do not
// run epoch-batched audit (no -epoch-len to align with).
const defaultJournalEpoch = 64

// journalEntry is one applied operation as the journal records it: the
// request plus the global counter its apply landed on. The counter
// keys replay ordering — concurrent handlers append out of order.
// Alternatively (Push set, G zero) it is one accepted content push.
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

// appliedG extracts the post-apply counter from a Protocol II response,
// bare or carried in a RiderResponse (Ctr is the pre-op counter).
func appliedG(resp any) uint64 {
	if rr, ok := resp.(*core.RiderResponse); ok {
		resp = rr.Resp
	}
	r, ok := resp.(*core.OpResponseII)
	if !ok {
		return 0
	}
	return r.Ctr + 1
}

// replayJournal re-applies, in counter order, every journaled
// operation above the server's head, and re-pushes every journaled
// content blob the store lacks. Op replay stops cleanly at the first
// counter gap: everything past a lost frame was never made durable as
// a batch, and applying it out of order would fabricate a history no
// client ever acked. Push replay is not cut at a gap — the store is a
// content-addressed map and a push's path and revision are labels, so
// a stray blob past a gap is unreferenced storage, never state — and a
// blob the restored snapshot already holds is skipped, so a restart
// after a clean stop copies nothing. Returns how many operations and
// pushes were re-applied.
func replayJournal(dir string, s Server, store *cvs.Store) (int, int, error) {
	from := s.DB().Ctr()
	var entries []journalEntry
	pushes := 0
	err := wal.Replay(dir, func(fr wal.Record) error {
		e, err := decodeEntry(fr.Payload)
		if err != nil {
			return err
		}
		if e.Push != nil {
			if store.Has(rcs.HashContent(e.Push.Content)) {
				return nil
			}
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
