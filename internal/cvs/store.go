package cvs

import (
	"fmt"
	"sync"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/rcs"
)

// Store is the server-side unauthenticated content store: one
// content-addressed blob map that keeps every pushed revision in full —
// including the conflicting (path, rev) pairs a forking server
// accumulates across diverged histories — and a per-path index of the
// in-order revisions' hashes. Stored blobs are immutable, so the lock
// covers only the two maps: hashing and copying happen outside it.
//
// Store trusts nothing and is trusted with nothing: it hashes what it
// stores, re-hashes what it serves, and clients re-hash every fetched
// revision against the authenticated records.
type Store struct {
	mu    sync.RWMutex
	blobs *rcs.BlobStore
	index *rcs.Archive
}

// NewStore creates an empty content store.
func NewStore() *Store {
	return &Store{blobs: rcs.NewBlobStore(), index: rcs.NewArchive()}
}

// Push stores content as revision rev of path under the hash the store
// computes itself: Stage, then Link.
func (s *Store) Push(path string, rev uint64, content []byte) error {
	s.Link(path, rev, s.Stage(content))
	return nil
}

// Stage stores content under the hash the store computes itself — a
// claimed hash is never trusted — and returns that hash. No path names
// the blob yet: content that rides with a commit is staged before the
// commit is applied, so no reader ever finds a revision record whose
// blob is missing, and a commit that then fails or conflicts leaves an
// unreferenced blob, never state.
func (s *Store) Stage(content []byte) digest.Digest {
	hash := rcs.HashContent(content)
	owned := append([]byte(nil), content...)
	s.mu.Lock()
	s.blobs.Add(hash, owned)
	s.mu.Unlock()
	return hash
}

// Link records a staged blob as revision rev of path. In-order
// revisions extend the path's index; out-of-order ones (which only
// arise when the server itself maintains diverged histories) stay in
// the blob map alone.
func (s *Store) Link(path string, rev uint64, hash digest.Digest) {
	s.mu.Lock()
	s.index.Extend(path, rev, hash)
	s.mu.Unlock()
}

// Fetch returns the content whose hash matches; path and rev only name
// it in the refusal.
func (s *Store) Fetch(path string, rev uint64, hash digest.Digest) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.blobs.Peek(hash)
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cvs: no content for %s@%d (%s)", path, rev, hash.Short())
	}
	return rcs.VerifiedCopy(b, hash)
}

// FetchRev returns the content of path's in-order revision rev without
// the caller naming a hash (for history commands, which verify against
// the authenticated log afterwards).
func (s *Store) FetchRev(path string, rev uint64) ([]byte, error) {
	s.mu.RLock()
	hash, err := s.index.At(path, rev)
	b, _ := s.blobs.Peek(hash) // the index only names blobs the map holds
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return rcs.VerifiedCopy(b, hash)
}

// Fork returns an independent copy for the adversary's partition
// attack: both forks serve the shared history, then diverge.
func (s *Store) Fork() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Store{blobs: s.blobs.Clone(), index: s.index.Fork()}
}
