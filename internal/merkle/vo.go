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
func (t *Tree) Record() *Recording { return t.RecordIn(new(Recorder)) }

// A Recorder is the memory of one recording transaction: the Recording
// and its recorder, the set of pre-state nodes it touched, as one
// object, which a caller embeds in its own (vdb.Staged does) so that a
// recorded transaction is a single allocation. Its VO points into it
// until the VO is materialized.
type Recorder struct {
	rec Recording
	mem txnMem
}

// RecordIn starts a transaction on t that records what it touches in
// r, which must be a zero Recorder: a Recorder serves one transaction.
func (t *Tree) RecordIn(r *Recorder) *Recording {
	r.mem.record = true
	return t.startIn(&r.rec, &r.mem)
}

// Begin starts a transaction on t that records nothing: VO is
// meaningless on it.
func (t *Tree) Begin() *Recording { return t.startIn(new(Recording), nil) }

// startIn starts a transaction on t in r that uses mem, which may be
// nil, beyond r.
func (t *Tree) startIn(r *Recording, mem *txnMem) *Recording {
	*r = Recording{base: t, cur: t, c: ctx{order: int32(t.order), mark: memoOwned, mem: mem}}
	return r
}

// Begin materializes the VO as the private pre-state of a transaction —
// the verifier's replay, which owns every node of it and so edits
// instead of copying — and returns the transaction with the pre-state's
// root digest, taken before anything can change it.
func (v *VO) Begin() (*Recording, digest.Digest, error) {
	t, err := v.fresh(memoOwned)
	if err != nil {
		return nil, digest.Zero, err
	}
	return t.Begin(), t.RootDigest(), nil
}

// An Arena is memory that VOs are materialized and replayed in, one at
// a time: the partial tree, its node and child-slot slabs, the replay's
// transaction and a buffer for the encodings of the leaves it writes.
// Each Begin reuses what the replay before it used, so a verifier that
// keeps nothing of a replay but digests verifies without allocating
// any of it once the arena has grown to its VOs. A tree the caller
// keeps — the epoch auditor's replay chain — needs VO.Begin's fresh
// memory instead. The zero Arena is ready to use; an Arena is not safe
// for concurrent use.
type Arena struct {
	tree  Tree
	rec   Recording
	mem   txnMem // enc only: a replay records nothing
	nodes []node
	kids  []kid
}

// Begin is VO.Begin into a's memory. The transaction, its pre-state and
// every tree it hands out are valid until End, which the caller calls
// once it has taken what it keeps — digests, copies — whether or not
// Begin succeeded.
func (a *Arena) Begin(v *VO) (*Recording, digest.Digest, error) {
	a.nodes, a.kids = grow(a.nodes, int(v.nodes)), grow(a.kids, v.slots())
	if err := v.decode(&a.tree, memoOwned, a.nodes, a.kids); err != nil {
		return nil, digest.Zero, err
	}
	return a.tree.startIn(&a.rec, &a.mem), a.tree.RootDigest(), nil
}

// End ends the replay Begin started. It clears every slab and the
// transaction, so that between replays a keeps no pointer into a VO, a
// frame or a tree, and it lets go of any slab or buffer more than four
// times larger than this replay used (and than a small floor): a VO
// that expands far more than its operation touches leaves no large
// memory behind once an ordinary one follows.
func (a *Arena) End() {
	a.tree, a.rec = Tree{}, Recording{}
	a.nodes, a.kids, a.mem.enc = trim(a.nodes, 64), trim(a.kids, 256), trim(a.mem.enc, 4096)
}

// grow returns s resized to n zero elements, in s's memory when it has
// room: End left all of it zero, and the VO decoder sets only what each
// node and slot holds (one of a slot's node and digest).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// trim clears what a replay used of s and returns it empty for the
// next, or nil when its capacity is over four times that and over floor.
func trim[T any](s []T, floor int) []T {
	clear(s)
	if cap(s) > max(4*len(s), floor) {
		return nil
	}
	return s[:0]
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
	v := &VO{base: r.base}
	if r.c.mem != nil && r.c.mem.record {
		v.keep = &r.c.mem.set
	}
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
	mu   sync.Mutex // guards base, keep and enc
	base *Tree      // a live VO's pre-state, nil once materialized
	keep *nodeSet   // the nodes of base the VO expands, its recording's recorder
	enc  []byte     // the bytes of a materialized VO
	// size is the length of the encoding; nodes and digests count its
	// expanded nodes and pruned digests, as whatever made the VO walked
	// or scanned it, and Tree sizes its two slabs by them. The counts
	// fit 32 bits (2^31 nodes take over 4 GiB to encode), which keeps a
	// VO, of which every operation makes two, in a 64-byte size class
	// apart from the tree's 80-byte child-slot arrays.
	size           int
	nodes, digests int32
}

// slots returns how many child slots the VO's tree has: every expanded
// node but the root fills one, and so does every pruned digest.
func (v *VO) slots() int { return max(int(v.nodes)+int(v.digests)-1, 0) }

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
func appendVO(b []byte, base *Tree, keep *nodeSet) []byte {
	return appendPruned(binary.AppendUvarint(b, uint64(base.order)), base.root, keep)
}

// Tree materializes the VO into a partial tree. It validates grammar
// and structure (the VO comes from an untrusted server) so that
// replaying operations on the result can never panic: malformed shapes
// are rejected here. Every node's encoding and every pruned subtree's
// digest is a window onto the VO's own bytes, every expanded node is cut
// from one slab and every child slot from another, so a tree costs three
// allocations — the Tree and the two slabs — however deep the VO is.
func (v *VO) Tree() (*Tree, error) { return v.fresh(memoUnset) }

// fresh is Tree with the memo word the expanded nodes start with.
func (v *VO) fresh(mark uint32) (*Tree, error) {
	t := new(Tree)
	if err := v.decode(t, mark, make([]node, v.nodes), make([]kid, v.slots())); err != nil {
		return nil, err
	}
	return t, nil
}

// decode materializes the VO into t, cutting its expanded nodes, which
// start with the memo word mark, from nodes and its child slots from
// kids: zero slabs of exactly the VO's counts.
func (v *VO) decode(t *Tree, mark uint32, nodes []node, kids []kid) error {
	data := v.bytes()
	d := voDecoder{data: data, mark: mark, nodes: nodes, kids: kids}
	d.r.Reset(data)
	order := d.r.Uvarint()
	if order < MinOrder || order > math.MaxInt32 {
		d.r.Fail("order %d", order)
	}
	d.order = int(order)
	*t = Tree{order: d.order, size: -1}
	d.kid(&t.root, 0)
	if err := d.r.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedVO, err)
	}
	return nil
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
