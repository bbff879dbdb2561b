package merkle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"trustedcvs/internal/digest"
)

// ErrRootMismatch is returned when a verification object's pre-state
// does not hash to the root digest the verifier knows. In protocol
// terms: the server answered from a database state other than the one
// the users last certified.
var ErrRootMismatch = errors.New("merkle: VO pre-state root digest mismatch")

// ErrMalformedVO is returned when a verification object received from
// the (untrusted) server is structurally invalid.
var ErrMalformedVO = errors.New("merkle: malformed verification object")

// A Recording is one transaction on a tree: operations performed through
// it share one copy of every pre-state node they change (see the package
// comment for the ownership rule) and, when started with Record, every
// pre-state node they touch is remembered, so that VO() can return the
// pruned pre-state that lets a verifier replay the batch — the paper's
// verification object v(Q, D), generalized from single updates to
// operation batches. The base tree is never modified. After an
// operation fails the transaction's own tree is unspecified: drop it.
type Recording struct {
	base *Tree
	cur  *Tree
	c    ctx
}

// Record starts a transaction on t that records what it touches.
func (t *Tree) Record() *Recording {
	r := t.Begin()
	r.c.rec = make(map[*node]struct{})
	return r
}

// Begin starts a transaction on t that records nothing: VO is
// meaningless on it.
func (t *Tree) Begin() *Recording {
	return &Recording{base: t, cur: t, c: ctx{order: int32(t.order), mark: memoOwned}}
}

// Begin materializes the VO as the private pre-state of a transaction —
// the verifier's replay, which owns every node of it and so edits
// instead of copying — and returns the transaction with the pre-state's
// root digest, taken before anything can change it.
func (v *VO) Begin() (*Recording, digest.Digest, error) {
	t, err := v.tree(memoOwned)
	if err != nil {
		return nil, digest.Zero, err
	}
	return t.Begin(), t.RootDigest(), nil
}

// Get reads through the recording.
func (r *Recording) Get(key string) ([]byte, bool, error) {
	return r.c.get(r.cur.root, key)
}

// Range scans through the recording.
func (r *Recording) Range(lo, hi string, fn func(key, val []byte) bool) error {
	_, err := r.c.rng(r.cur.root, lo, hi, fn)
	return err
}

// Put writes through the recording.
func (r *Recording) Put(key string, val []byte) error {
	nt, err := r.cur.putCtx(&r.c, key, val)
	if err != nil {
		return err
	}
	r.cur = nt
	return nil
}

// Delete removes through the recording.
func (r *Recording) Delete(key string) (bool, error) {
	nt, found, err := r.cur.deleteCtx(&r.c, key)
	if err != nil {
		return false, err
	}
	r.cur = nt
	return found, nil
}

// Tree returns the post-state after all operations so far and ends the
// transaction's ownership of its nodes: the returned tree is immutable
// like any other, and later operations through r copy again.
func (r *Recording) Tree() *Tree {
	if root := r.cur.root.n; root != nil && root.owned() {
		release(root)
	}
	return r.cur
}

// VO returns the verification object for the recorded batch: the
// pre-state tree pruned down to the nodes the batch touched, written
// straight from the tree nodes into the flat encoding and counted on the
// way. Nodes created during the batch are never part of the pre-state
// and are reconstructed by the verifier's replay.
func (r *Recording) VO() *VO {
	scratch := voScratch.Get().(*[]byte)
	b := binary.AppendUvarint((*scratch)[:0], uint64(r.base.order))
	vo := new(VO)
	b = appendPruned(b, r.base.root, r.c.rec, vo)
	vo.enc = slices.Clone(b)
	*scratch = b
	voScratch.Put(scratch)
	return vo
}

// voScratch recycles the buffer a VO is assembled in, so that the VO
// itself is one exactly sized allocation.
var voScratch = sync.Pool{New: func() any { return new([]byte) }}

// VO is a wire-encodable verification object: a pruned copy of the
// server's pre-state tree, the paper's v(Q, D). It has one
// representation, the flat preorder encoding of vobinary.go: Recording.VO
// writes it, MarshalBinary hands it out, ViewVO wraps received bytes
// in place, and Tree and Stats read it. The bytes are never modified
// once the VO exists, which is what lets every tree Tree returns share
// them. The zero VO is malformed.
type VO struct {
	enc []byte
	// nodes and digests count the expanded nodes and the pruned digests
	// of enc: whatever made the VO counted them while it wrote or scanned
	// the bytes, and Tree sizes its two slabs by them.
	nodes, digests int
}

// Tree materializes the VO into a partial tree. It validates grammar
// and structure (the VO comes from an untrusted server) so that
// replaying operations on the result can never panic: malformed shapes
// are rejected here. Every node's encoding and every pruned subtree's
// digest is a window onto the VO's own bytes, every expanded node is cut
// from one slab and every child slot from another, so a tree costs three
// allocations — the Tree and the two slabs — however deep the VO is.
func (v *VO) Tree() (*Tree, error) { return v.tree(memoUnset) }

// tree is Tree with the memo word the expanded nodes start with.
func (v *VO) tree(mark uint32) (*Tree, error) {
	d := voDecoder{data: v.enc, mark: mark, nodes: make([]node, v.nodes)}
	if slots := v.nodes + v.digests - 1; slots > 0 {
		d.kids = make([]kid, slots) // every node but the root fills a child slot
	}
	d.r.Reset(v.enc)
	order := d.r.Uvarint()
	if order < MinOrder || order > math.MaxInt32 {
		d.r.Fail("order %d", order)
	}
	d.order = int(order)
	t := &Tree{order: d.order, size: -1}
	d.kid(&t.root, 0)
	if err := d.r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedVO, err)
	}
	return t, nil
}

// Replay is the verifier's side of Section 4.1: it materializes the VO,
// checks that the pre-state hashes to oldRoot (the root digest the
// verifier already trusts), replays the operation batch fn on the
// partial tree, and returns the post-state root digest. Any attempt by
// fn to read beyond what the VO covers fails with ErrPruned, which
// means the VO — and hence the server — is bad.
func (v *VO) Replay(oldRoot digest.Digest, fn func(*Tree) (*Tree, error)) (digest.Digest, error) {
	t, err := v.Tree()
	if err != nil {
		return digest.Zero, err
	}
	if got := t.RootDigest(); got != oldRoot {
		return digest.Zero, fmt.Errorf("%w: VO root %s, trusted root %s",
			ErrRootMismatch, got.Short(), oldRoot.Short())
	}
	nt, err := fn(t)
	if err != nil {
		return digest.Zero, err
	}
	return nt.RootDigest(), nil
}

// VOStats summarizes a verification object's size, the quantity the
// paper bounds by O(log n) per updated key.
type VOStats struct {
	ExpandedNodes int // nodes shipped in full
	PrunedDigests int // sibling digests shipped (the "O(log n) digests")
	Records       int // key/value records shipped
	ApproxBytes   int // structural size estimate (keys + values + digests)
}

// Stats computes size statistics for the VO.
func (v *VO) Stats() VOStats {
	s, _ := scanVO(v.enc)
	return s
}
