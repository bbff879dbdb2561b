package cvs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
)

// StoreSnapshot is the persistent form of the content store: the
// unique blobs plus, per path, the ordered content hashes of its
// in-order revisions.
type StoreSnapshot struct {
	Blobs [][]byte
	Files []FileChain
}

// FileChain records one path's in-order revision content hashes.
type FileChain struct {
	Path   string
	Hashes []digest.Digest
}

// AppendSnapshot appends s to b.
//
//	store = uvarint(n) n×bytes  uvarint(m) m×( string(path) uvarint(k) k×digest[32] )
func AppendSnapshot(b []byte, s *StoreSnapshot) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Blobs)))
	for _, blob := range s.Blobs {
		b = binenc.AppendBytes(b, blob)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Files)))
	for _, f := range s.Files {
		b = binary.AppendUvarint(binenc.AppendString(b, f.Path), uint64(len(f.Hashes)))
		for _, h := range f.Hashes {
			b = append(b, h[:]...)
		}
	}
	return b
}

// ReadSnapshot reads what AppendSnapshot wrote, every count bounded by
// the bytes left. Blobs are windows onto the input (RestoreStore copies
// them); whether the chains name stored blobs is RestoreStore's call.
func ReadSnapshot(r *binenc.Reader) *StoreSnapshot {
	s := &StoreSnapshot{Blobs: make([][]byte, r.Count(1))}
	for i := range s.Blobs {
		s.Blobs[i] = r.ViewBytes()
	}
	s.Files = make([]FileChain, r.Count(2))
	for i := range s.Files {
		f := &s.Files[i]
		f.Path, f.Hashes = r.String(), make([]digest.Digest, r.Count(digest.Size))
		for j := range f.Hashes {
			copy(f.Hashes[j][:], r.View(digest.Size))
		}
	}
	return s
}

// Snapshot captures the store: each path's revisions' blobs in path
// then revision order, then the blobs that belong to no chain (pushed
// out of order under a fork, or superseded) in digest order. Every blob
// is re-hashed on the way out.
func (s *Store) Snapshot() (*StoreSnapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := &StoreSnapshot{}
	seen := make(map[digest.Digest]bool, s.blobs.Len())
	addBlob := func(h digest.Digest) error {
		if seen[h] {
			return nil
		}
		seen[h] = true
		content, err := s.blobs.Get(h)
		if err != nil {
			return err
		}
		snap.Blobs = append(snap.Blobs, content)
		return nil
	}
	for _, path := range s.index.Paths() {
		chain := FileChain{Path: path, Hashes: append([]digest.Digest(nil), s.index.Revisions(path)...)}
		for i, h := range chain.Hashes {
			if err := addBlob(h); err != nil {
				return nil, fmt.Errorf("cvs: snapshot %s@%d: %w", path, i+1, err)
			}
		}
		snap.Files = append(snap.Files, chain)
	}
	extras := s.blobs.Digests()
	sort.Slice(extras, func(i, j int) bool { return extras[i].String() < extras[j].String() })
	for _, h := range extras {
		if err := addBlob(h); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// RestoreStore rebuilds a content store from a snapshot. Every blob is
// kept, whether or not a chain names it.
func RestoreStore(snap *StoreSnapshot) (*Store, error) {
	if snap == nil {
		return nil, fmt.Errorf("cvs: nil store snapshot")
	}
	s := NewStore()
	for _, b := range snap.Blobs {
		s.blobs.Put(b)
	}
	for _, chain := range snap.Files {
		for i, h := range chain.Hashes {
			if _, ok := s.blobs.Peek(h); !ok {
				return nil, fmt.Errorf("cvs: restore %s@%d: blob %s missing", chain.Path, i+1, h.Short())
			}
			s.index.Extend(chain.Path, uint64(i+1), h)
		}
	}
	return s, nil
}
