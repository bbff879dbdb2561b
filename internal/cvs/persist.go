package cvs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/rcs"
)

// StoreSnapshot is the persistent form of the content store: its blobs
// in strictly increasing digest order, so one store has one spelling
// whatever order its content arrived in.
type StoreSnapshot struct {
	Blobs [][]byte
}

// AppendSnapshot appends s to b.
//
//	store = uvarint(n) n×bytes
func AppendSnapshot(b []byte, s *StoreSnapshot) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Blobs)))
	for _, blob := range s.Blobs {
		b = binenc.AppendBytes(b, blob)
	}
	return b
}

// ReadSnapshot reads what AppendSnapshot wrote, the count bounded by
// the bytes left. Every blob is re-hashed and the digests must strictly
// increase — a reordered or repeated blob is a second spelling of the
// same store and is refused. Blobs are windows onto the input
// (RestoreStore copies them).
func ReadSnapshot(r *binenc.Reader) *StoreSnapshot {
	s := &StoreSnapshot{Blobs: make([][]byte, r.Count(1))}
	var prev digest.Digest
	for i := range s.Blobs {
		s.Blobs[i] = r.ViewBytes()
		if r.Err() != nil {
			break
		}
		h := rcs.HashContent(s.Blobs[i])
		if i > 0 && bytes.Compare(prev[:], h[:]) >= 0 {
			r.Fail("store blob %d is not above its predecessor in digest order", i)
		}
		prev = h
	}
	return s
}

// Snapshot captures the store, every blob re-hashed on the way out.
func (s *Store) Snapshot() (*StoreSnapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hashes := make([]digest.Digest, 0, len(s.blobs))
	for h := range s.blobs {
		hashes = append(hashes, h)
	}
	slices.SortFunc(hashes, func(a, b digest.Digest) int { return bytes.Compare(a[:], b[:]) })
	snap := &StoreSnapshot{Blobs: make([][]byte, len(hashes))}
	for i, h := range hashes {
		if err := verify(s.blobs[h], h); err != nil {
			return nil, fmt.Errorf("cvs: snapshot: %w", err)
		}
		snap.Blobs[i] = append([]byte(nil), s.blobs[h]...)
	}
	return snap, nil
}

// RestoreStore rebuilds a content store from a snapshot, each blob
// filed under the hash computed here.
func RestoreStore(snap *StoreSnapshot) (*Store, error) {
	if snap == nil {
		return nil, fmt.Errorf("cvs: nil store snapshot")
	}
	s := NewStore()
	for _, b := range snap.Blobs {
		s.blobs[rcs.HashContent(b)] = append([]byte(nil), b...)
	}
	return s, nil
}
