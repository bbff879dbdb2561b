// Package rcs is the server-side revision storage substrate of a
// CVS-like system: a content-addressed blob store that holds every
// revision in full, and a per-path index of revision hashes in commit
// order. There is deliberately no delta chain: every revision must
// stay fetchable in full by its hash, so a head + reverse-delta chain
// beside the blobs is a second copy that costs a diff per push. Delta
// compression, if wanted, belongs off the request path, where it would
// replace the full copies.
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
	"sort"

	"trustedcvs/internal/digest"
)

// ErrNoRevision is returned for out-of-range revision numbers or files
// with no commits.
var ErrNoRevision = errors.New("rcs: no such revision")

// ErrUnknownFile is returned by Archive lookups for unknown paths.
var ErrUnknownFile = errors.New("rcs: unknown file")

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

// Archive is the revision index of a CVS server: for each path, the
// content hashes of revisions 1..n in commit order. The content itself
// lives in a BlobStore under those hashes.
type Archive struct {
	chains map[string][]digest.Digest
}

// NewArchive creates an empty archive.
func NewArchive() *Archive { return &Archive{chains: make(map[string][]digest.Digest)} }

// Extend records h as revision rev of path when rev is the next
// revision in order (rev == Revisions(path)+1) and reports whether it
// did. Either way path becomes known to the archive.
func (a *Archive) Extend(path string, rev uint64, h digest.Digest) bool {
	chain := a.chains[path]
	next := rev == uint64(len(chain))+1
	if next {
		chain = append(chain, h)
	}
	a.chains[path] = chain
	return next
}

// Revisions returns path's revision hashes in order, revision i+1 at
// index i. The slice is the archive's own: callers must not modify it.
func (a *Archive) Revisions(path string) []digest.Digest { return a.chains[path] }

// At returns the content hash of revision rev of path.
func (a *Archive) At(path string, rev uint64) (digest.Digest, error) {
	chain, ok := a.chains[path]
	if !ok {
		return digest.Digest{}, fmt.Errorf("%w: %s", ErrUnknownFile, path)
	}
	if rev < 1 || rev > uint64(len(chain)) {
		return digest.Digest{}, fmt.Errorf("%w: %s revision %d (have 1..%d)", ErrNoRevision, path, rev, len(chain))
	}
	return chain[rev-1], nil
}

// Paths returns all file paths in sorted order.
func (a *Archive) Paths() []string {
	out := make([]string, 0, len(a.chains))
	for p := range a.chains {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of files in the archive.
func (a *Archive) Len() int { return len(a.chains) }

// Fork returns an independent copy for the adversary package: both
// archives hold the shared history and diverge on future revisions.
func (a *Archive) Fork() *Archive {
	na := &Archive{chains: make(map[string][]digest.Digest, len(a.chains))}
	for p, chain := range a.chains {
		na.chains[p] = append([]digest.Digest(nil), chain...)
	}
	return na
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
