package cvs

import (
	"fmt"
	"sync"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/rcs"
)

// Store is the server-side unauthenticated content store: one
// content-addressed blob map that keeps every pushed revision in full,
// including the conflicting (path, rev) pairs a forking server
// accumulates across diverged histories. Which blob is which revision
// is the authenticated database's business alone; the path and rev
// that Push and Fetch take are labels for refusals and never looked
// up. Stored blobs are immutable, so the lock covers only the map:
// hashing and copying happen outside it. A blob is copied once on the
// way in; serving it copies nothing (View) — the encoder's copy into
// the response frame is the only one — and Fetch is View plus the copy
// a caller that may modify the bytes needs.
//
// Store trusts nothing and is trusted with nothing: it hashes what it
// stores, re-hashes what it serves, and clients re-hash every fetched
// revision against the authenticated records.
type Store struct {
	mu    sync.RWMutex
	blobs map[digest.Digest][]byte
}

// NewStore creates an empty content store.
func NewStore() *Store {
	return &Store{blobs: make(map[digest.Digest][]byte)}
}

// Push stores content under the hash the store computes itself — a
// claimed hash is never trusted. Content is stored before the commit
// that names it is issued, so no reader ever finds a revision record
// whose blob is missing, and a commit that then fails or conflicts
// leaves an unreferenced blob, never state.
func (s *Store) Push(path string, rev uint64, content []byte) error {
	hash := rcs.HashContent(content)
	owned := append([]byte(nil), content...)
	s.mu.Lock()
	if _, ok := s.blobs[hash]; !ok {
		s.blobs[hash] = owned
	}
	s.mu.Unlock()
	return nil
}

// Has reports whether the store holds content under hash.
func (s *Store) Has(hash digest.Digest) bool {
	s.mu.RLock()
	_, ok := s.blobs[hash]
	s.mu.RUnlock()
	return ok
}

// View returns the stored content whose hash matches, re-hashed but
// not copied: the blob itself, which the caller must not modify. It is
// how the server's own handlers serve content.
func (s *Store) View(path string, rev uint64, hash digest.Digest) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.blobs[hash]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cvs: no content for %s@%d (%s)", path, rev, hash.Short())
	}
	if err := verify(b, hash); err != nil {
		return nil, err
	}
	return b, nil
}

// Fetch returns a copy, which the caller owns, of the content whose
// hash matches.
func (s *Store) Fetch(path string, rev uint64, hash digest.Digest) ([]byte, error) {
	b, err := s.View(path, rev, hash)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// verify re-hashes a stored blob against the digest it is kept under —
// an object is verified when it is read, not merely when it is written
// — and reports rcs.ErrCorrupt if they differ.
func verify(b []byte, d digest.Digest) error {
	if rcs.HashContent(b) != d {
		return fmt.Errorf("%w: blob %s", rcs.ErrCorrupt, d.Short())
	}
	return nil
}
