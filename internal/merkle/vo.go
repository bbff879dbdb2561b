package merkle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"trustedcvs/internal/binenc"
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

// ErrVOTaken is returned by an operation through a recording whose VO
// was taken: the recorder has ended, and the VO describes the batch
// that came before.
var ErrVOTaken = errors.New("merkle: operation through a recording whose VO was taken")

// voTaken is a flag of a transaction's ctx.mark, beside memoOwned but
// never stored in a node: VO was called, and the transaction refuses
// every further operation. VO may be called any number of times, from
// any number of goroutines, so the flag is set and read atomically.
const voTaken uint32 = 8

// taken returns ErrVOTaken once VO was called on r.
func (r *Recording) taken() error {
	if atomic.LoadUint32(&r.c.mark)&voTaken != 0 {
		return ErrVOTaken
	}
	return nil
}

// Get reads through the recording.
func (r *Recording) Get(key string) ([]byte, bool, error) {
	if err := r.taken(); err != nil {
		return nil, false, err
	}
	return r.c.get(r.cur.root, key)
}

// Range scans through the recording.
func (r *Recording) Range(lo, hi string, fn func(key, val []byte) bool) error {
	if err := r.taken(); err != nil {
		return err
	}
	_, err := r.c.rng(r.cur.root, lo, hi, fn)
	return err
}

// Put writes through the recording.
func (r *Recording) Put(key string, val []byte) error {
	if err := r.taken(); err != nil {
		return err
	}
	nt, err := r.cur.putCtx(&r.c, key, val)
	if err != nil {
		return err
	}
	r.cur = nt
	return nil
}

// Delete removes through the recording.
func (r *Recording) Delete(key string) (bool, error) {
	if err := r.taken(); err != nil {
		return false, err
	}
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

// VO ends the recording's recorder and returns the verification object
// for the batch recorded so far: the pre-state tree pruned down to the
// nodes the batch touched. Nodes created during the batch are never part
// of the pre-state and are reconstructed by the verifier's replay.
// Nothing is copied yet: a sizing walk over the recorded nodes, which
// hashes nothing, counts the VO's length, nodes and digests, and the VO
// keeps the pre-state and the recorded nodes to write its bytes from
// when they are asked for. Operations through r afterwards fail with
// ErrVOTaken, so nothing can change what the VO writes; Tree still
// hands out the post-state.
func (r *Recording) VO() *VO {
	if m := atomic.LoadUint32(&r.c.mark); m&voTaken == 0 {
		atomic.StoreUint32(&r.c.mark, m|voTaken)
	}
	v := &VO{base: r.base, keep: r.c.rec}
	v.size = binenc.UvarintLen(uint64(r.base.order)) + sizePruned(r.base.root, v.keep, v)
	return v
}

// VO is a wire-encodable verification object: a pruned copy of the
// server's pre-state tree, the paper's v(Q, D), in the flat preorder
// encoding of vobinary.go. A VO is live or materialized. Recording.VO
// returns a live one, which holds the pre-state and the nodes the
// recording touched and writes its bytes from them: AppendBinary puts
// them straight into the caller's buffer — the server's response frame
// — and every other reader (Tree, Begin, Stats, MarshalBinary)
// materializes them once into one exactly sized slice, after which the
// VO lets go of the pre-state, an old version of the whole tree. ViewVO
// wraps received bytes as a materialized VO. Either way the bytes never
// change once the VO exists, which is what lets every tree Tree returns
// share them. A VO is safe for concurrent use. The zero VO is
// malformed.
type VO struct {
	mu   sync.Mutex         // guards base, keep and enc
	base *Tree              // a live VO's pre-state, nil once materialized
	keep map[*node]struct{} // the nodes of base the VO expands
	enc  []byte             // the bytes of a materialized VO
	// size is the length of the encoding; nodes and digests count its
	// expanded nodes and pruned digests, as whatever made the VO walked
	// or scanned it, and Tree sizes its two slabs by them.
	size, nodes, digests int
}

// Len returns the length of the VO's encoding, which AppendBinary
// appends.
func (v *VO) Len() int { return v.size }

// bytes returns the VO's encoding, materializing a live VO.
func (v *VO) bytes() []byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.base != nil {
		v.enc = appendVO(make([]byte, 0, v.size), v.base, v.keep)
		v.base, v.keep = nil, nil
	}
	return v.enc
}

// appendVO appends the encoding of the VO that prunes base down to the
// nodes in keep.
func appendVO(b []byte, base *Tree, keep map[*node]struct{}) []byte {
	return appendPruned(binary.AppendUvarint(b, uint64(base.order)), base.root, keep)
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
	data := v.bytes()
	d := voDecoder{data: data, mark: mark, nodes: make([]node, v.nodes)}
	if slots := v.nodes + v.digests - 1; slots > 0 {
		d.kids = make([]kid, slots) // every node but the root fills a child slot
	}
	d.r.Reset(data)
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
	s, _ := scanVO(v.bytes())
	return s
}
