// Package rcs is the server-side revision storage substrate of a
// CVS-like system: a content-addressed blob store that holds every
// revision in full, and nothing else. Which blob is which revision of
// which path is a question only the authenticated database answers
// (internal/cvs's revision records), so there is no index here to
// disagree with it. There is deliberately no delta chain either: every
// revision must stay fetchable in full by its hash, so a head +
// reverse-delta chain beside the blobs is a second copy that costs a
// diff per push. Delta compression, if wanted, belongs off the request
// path, where it would replace the full copies.
//
// Nothing in this package is trusted. The authenticated layer
// (internal/vdb + internal/cvs) commits to content *hashes*; rcs merely
// has to produce bytes that hash correctly, and a client always
// re-hashes what it receives. A malicious server that tampers with rcs
// state can only cause detectable failures.
package rcs

import (
	"errors"
	"fmt"

	"trustedcvs/internal/digest"
)

// ErrCorrupt is returned when stored content does not match its
// recorded content hash — on an honest server this indicates storage
// corruption; under an adversary it is tampering.
var ErrCorrupt = errors.New("rcs: content does not match recorded hash")

// HashContent computes the content hash the authenticated revision
// records carry and clients verify after every checkout.
func HashContent(content []byte) digest.Digest {
	return digest.OfBytes(digest.DomainBlob, content)
}

// CheckContent verifies fetched blob bytes against the authenticated
// hash the client pinned for that revision. Every transfer path that
// hands content to a caller must run fetched bytes through this check
// (tcvs-lint's verifyflow pass treats it as the sanitizer for blob
// content).
func CheckContent(content []byte, want digest.Digest) error {
	if HashContent(content) != want {
		return fmt.Errorf("rcs: content does not match authenticated hash %s", want.Short())
	}
	return nil
}

// BlobStore is a content-addressed store: blobs are keyed by their
// digest, so a reader can always verify what it gets. Stored blobs are
// immutable. A BlobStore does no locking; Put and Get are Add and Peek
// with the hashing and copying done inside, and a caller that guards
// the store with a lock uses the split forms to keep both outside it.
type BlobStore struct {
	blobs map[digest.Digest][]byte
}

// NewBlobStore creates an empty blob store.
func NewBlobStore() *BlobStore {
	return &BlobStore{blobs: make(map[digest.Digest][]byte)}
}

// Put stores content and returns its digest. Content is copied.
func (s *BlobStore) Put(content []byte) digest.Digest {
	d := HashContent(content)
	s.Add(d, append([]byte(nil), content...))
	return d
}

// Add stores owned under d, which the caller computed as
// HashContent(owned). The store keeps the slice: the caller must not
// touch it again.
func (s *BlobStore) Add(d digest.Digest, owned []byte) {
	if _, ok := s.blobs[d]; !ok {
		s.blobs[d] = owned
	}
}

// Get returns a copy of the blob for d, verified against its digest.
func (s *BlobStore) Get(d digest.Digest) ([]byte, error) {
	b, ok := s.Peek(d)
	if !ok {
		return nil, fmt.Errorf("rcs: blob %s not found", d.Short())
	}
	return VerifiedCopy(b, d)
}

// Peek returns the stored blob for d itself, unverified and shared:
// hand it to VerifiedCopy before it leaves the server.
func (s *BlobStore) Peek(d digest.Digest) ([]byte, bool) {
	b, ok := s.blobs[d]
	return b, ok
}

// VerifiedCopy re-hashes a stored blob against the digest it is kept
// under — an object is verified when it is read, not merely when it is
// written — and returns a copy the caller owns, or ErrCorrupt.
func VerifiedCopy(b []byte, d digest.Digest) ([]byte, error) {
	if HashContent(b) != d {
		return nil, fmt.Errorf("%w: blob %s", ErrCorrupt, d.Short())
	}
	return append([]byte(nil), b...), nil
}

// Len returns the number of stored blobs.
func (s *BlobStore) Len() int { return len(s.blobs) }

// Digests returns every stored blob's digest (unordered).
func (s *BlobStore) Digests() []digest.Digest {
	out := make([]digest.Digest, 0, len(s.blobs))
	for d := range s.blobs {
		out = append(out, d)
	}
	return out
}

// Clone returns an independent store sharing the (immutable) blob
// contents but not the index, so clones can diverge safely.
func (s *BlobStore) Clone() *BlobStore {
	ns := NewBlobStore()
	for d, b := range s.blobs {
		ns.blobs[d] = b
	}
	return ns
}
