// Package digest provides the cryptographic digest type used throughout
// Trusted CVS: a 32-byte SHA-256 value with domain-separated hashing
// helpers and the XOR algebra that Protocols II and III build their
// state registers on.
//
// The paper assumes "a collision intractable hash function, for example
// as described in [2]"; we instantiate it with SHA-256. Every hash in
// this codebase is domain separated by a one-byte tag so that digests
// of different kinds of objects (tree leaves, tree internal nodes,
// protocol states, ...) can never collide structurally.
package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
)

// Size is the byte length of a Digest.
const Size = sha256.Size

// Digest is a SHA-256 hash value. The zero Digest is used as "no
// digest" and never collides with a real hash output in practice.
type Digest [Size]byte

// Domain tags. Each distinct object kind hashed anywhere in the system
// gets its own tag, which is hashed as the first byte of the input.
const (
	// DomainLeaf and DomainInternal separate Merkle B+-tree node kinds.
	DomainLeaf     byte = 0x00
	DomainInternal byte = 0x01
	// DomainEmpty is the digest of an empty tree.
	DomainEmpty byte = 0x02
	// DomainState is h(M(D) || ctr): the untagged database state used
	// by Protocol I.
	DomainState byte = 0x03
	// DomainTaggedState is h(M(D) || ctr || user): the user-tagged
	// state used by Protocols II and III.
	DomainTaggedState byte = 0x04
	// DomainBlob is the content hash of a revision blob in the rcs
	// store.
	DomainBlob byte = 0x05
	// DomainEpoch binds an epoch summary for Protocol III signatures.
	DomainEpoch byte = 0x06
	// 0x07 was a per-record domain no hash ever used (leaves hash
	// under DomainLeaf); it is never reused.
	// DomainSnapshot is the integrity footer over a state image stored
	// as one file — a server checkpoint, a client's register file,
	// workspace metadata (the envelope's magic tells them apart): it
	// detects torn writes and bit rot on load, so nobody silently
	// restarts from garbage.
	DomainSnapshot byte = 0x08
	// DomainCommitment binds a signed epoch root commitment the primary
	// publishes to its witnesses; two valid signatures under this domain
	// over conflicting (ctr, root) pairs are court-ready fork evidence.
	DomainCommitment byte = 0x09
	// 0x0a–0x0c were the Merkle forest's (root-of-roots, cross-shard
	// transaction, per-shard tagged state) and are never reused.
	// DomainWALFrame is the per-frame integrity footer of the audit
	// write-ahead log (internal/wal): h(epoch ‖ payload). A torn or
	// rotted frame fails its footer on replay instead of resurrecting a
	// corrupt verification obligation.
	DomainWALFrame byte = 0x0d
	// DomainWALCursor is the integrity footer over a WAL cursor file —
	// the durable (completed epoch, user state) pair recovery resumes
	// from. Distinct from DomainWALFrame so a frame can never be passed
	// off as a cursor or vice versa.
	DomainWALCursor byte = 0x0e
)

// Zero is the all-zero digest.
var Zero Digest

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == Zero }

// Xor returns d ⊕ o. XOR of digests is the commutative group operation
// underlying the σ registers of Protocols II and III: states seen an
// even number of times cancel out.
func (d Digest) Xor(o Digest) Digest {
	var r Digest
	for i := range d {
		r[i] = d[i] ^ o[i]
	}
	return r
}

// String returns the full hex encoding of d.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns an 8-hex-digit prefix, for logs and error messages.
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// A Hasher incrementally builds a domain-separated digest. It
// length-prefixes every variable-length field so concatenation
// ambiguities cannot produce collisions.
//
// Fields accumulate in a buffer and Sum hashes them with one
// sha256.Sum256 call: a tree node or a protocol state is a few hundred
// bytes, and one call over them costs a fraction of twenty writes
// through the hash.Hash interface. A field that does not fit in what is
// left of the buffer switches the Hasher to streaming — the buffer is
// flushed into a running hash and a byte-slice field is written to it
// directly — so large inputs (blobs, snapshots, WAL frames) are never
// copied. Both routes hash the same byte sequence.
//
// Hashers are recycled through an internal pool: Sum returns the
// Hasher to the pool, so a Hasher must not be used after Sum.
type Hasher struct {
	buf       []byte    // pending input; its capacity is fixed at hasherBuf
	stream    hash.Hash // holds everything before buf once streaming
	streaming bool
}

// hasherBuf holds a full order-8 tree node with room to spare.
const hasherBuf = 4096

var hasherPool = sync.Pool{
	New: func() any { return &Hasher{buf: make([]byte, 0, hasherBuf), stream: sha256.New()} },
}

// NewHasher returns a Hasher whose first hashed byte is the domain tag.
func NewHasher(domain byte) *Hasher {
	h := hasherPool.Get().(*Hasher)
	h.buf = append(h.buf[:0], domain)
	h.streaming = false
	return h
}

// flush moves the buffered bytes into the running hash.
func (h *Hasher) flush() {
	if !h.streaming {
		h.stream.Reset()
		h.streaming = true
	}
	h.stream.Write(h.buf)
	h.buf = h.buf[:0]
}

// room makes space for n <= hasherBuf more buffered bytes.
func (h *Hasher) room(n int) {
	if n > cap(h.buf)-len(h.buf) {
		h.flush()
	}
}

// Bytes hashes a length-prefixed byte string.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.Uint64(uint64(len(b)))
	if len(b) > cap(h.buf)-len(h.buf) {
		h.flush()
		h.stream.Write(b)
		return h
	}
	h.buf = append(h.buf, b...)
	return h
}

// String hashes a length-prefixed string without converting it to a
// []byte (which would allocate): what does not fit is chunked through
// the buffer.
func (h *Hasher) String(s string) *Hasher {
	h.Uint64(uint64(len(s)))
	for {
		n := copy(h.buf[len(h.buf):cap(h.buf)], s)
		h.buf = h.buf[:len(h.buf)+n]
		if s = s[n:]; s == "" {
			return h
		}
		h.flush()
	}
}

// Uint64 hashes a fixed-width big-endian uint64.
func (h *Hasher) Uint64(v uint64) *Hasher {
	h.room(8)
	h.buf = binary.BigEndian.AppendUint64(h.buf, v)
	return h
}

// Digest hashes another digest (fixed width, no length prefix needed).
func (h *Hasher) Digest(d Digest) *Hasher {
	h.room(Size)
	h.buf = append(h.buf, d[:]...)
	return h
}

// Sum finalizes and returns the digest. It recycles the Hasher, which
// must not be used afterwards.
func (h *Hasher) Sum() Digest {
	var d Digest
	if h.streaming {
		h.stream.Write(h.buf)
		// Summing into the spent buffer keeps the result off the heap.
		copy(d[:], h.stream.Sum(h.buf[:0]))
	} else {
		d = sha256.Sum256(h.buf)
	}
	hasherPool.Put(h)
	return d
}

// OfBytes is a convenience for hashing a single byte string under a
// domain.
func OfBytes(domain byte, b []byte) Digest {
	return NewHasher(domain).Bytes(b).Sum()
}

// Empty is the digest of an empty Merkle tree.
func Empty() Digest {
	return NewHasher(DomainEmpty).Sum()
}
