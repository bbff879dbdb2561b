// Package merkle implements the authenticated dictionary of Section 4.1
// of the Trusted CVS paper: a B+-tree in which every node carries a
// digest — leaf digests bind the records stored in the leaf, internal
// digests bind the separator keys and the children's digests — so the
// digest of the root ("root hash", M(D) in the paper) commits to the
// entire database contents.
//
// The tree is persistent (copy on write): mutating operations return a
// new *Tree and leave the receiver untouched. Persistence is what makes
// verification objects cheap to build (the pre-state stays alive while
// the operation runs, so the recorder can prune it afterwards) and
// gives the adversary package O(1) forks of the database, which the
// partition attack of Figure 1 needs.
//
// Copying is per transaction, not per key. A node created inside a
// transaction (a Recording: Tree.Record, Tree.Begin, VO.Begin,
// Arena.Begin) carries the memoOwned bit in its memo word and belongs
// to that transaction, which is the only holder of a pointer to it: a
// further put or delete of the same transaction edits it in place, and
// the recorder skips it (it is never pre-state). Ownership ends when
// the transaction hands its tree out: Recording.Tree walks the owned
// nodes — they hang together under the root — and clears the bit, so no
// tree anyone else can reach ever contains an owned node, and whatever
// is written through the Recording afterwards copies again.
//
// A node is its own encoding: its keys and, in a leaf, its values are
// one byte string in the VO grammar of vobinary.go, which a VO or a
// snapshot carries as it is and a decoded tree keeps as a window onto
// the bytes it came in. Those bytes are never written: any change to a
// node's keys or values, an owned node's included, builds a new
// encoding, and a value passed to Put is copied into it. Get and Range
// hand out windows onto the encoding, which the caller must not modify.
//
// Verification objects (see vo.go) are pruned copies of the pre-state
// tree. The server's are written once, straight from the pre-state's
// nodes into whatever buffer the caller passes — a response frame — or
// into one exactly sized slice for a reader that materializes them. A
// tree rebuilt from one has child slots that hold no node, only the
// digest of the subtree the VO pruned away, as a window onto the VO's
// bytes. Any operation that would need to look inside such a subtree
// fails with ErrPruned; on a fully materialized tree no operation ever
// returns an error.
package merkle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
)

// DefaultOrder is the branching factor used when 0 is passed to New: a
// node holds at most DefaultOrder keys and DefaultOrder+1 children,
// matching the paper's "up to m keys and m+1 pointers".
const DefaultOrder = 8

// MinOrder is the smallest supported branching factor.
const MinOrder = 3

// ErrPruned is returned when an operation needs the contents of a
// subtree that a verification object pruned away. During VO verification
// this means the VO does not cover the operation being replayed — i.e.
// the server's proof is invalid.
var ErrPruned = errors.New("merkle: operation reached a pruned node")

// Tree is an immutable authenticated B+-tree mapping string keys to
// byte-slice values. The zero value is not usable; call New.
type Tree struct {
	order int
	root  kid
	size  int
}

type node struct {
	leaf bool
	memo atomic.Uint32 // memoUnset, memoWriting or memoValid (who may touch dig), with or without memoOwned
	dig  digest.Digest // the memoized digest; read only after memo reads memoValid
	enc  []byte        // the node's body in the VO grammar (vobinary.go): keys, then a leaf's values
	kids []kid         // internal nodes: one more than the keys
}

// A kid is a child slot of an internal node, or a tree's root slot. It
// holds exactly one of the node and, only in a tree rebuilt from a
// verification object, the digest of the subtree the VO pruned: a window
// onto the VO's own 32 bytes, as a node's encoding is a window onto its
// body, never copied and never written. The zero kid is the root of an
// empty tree.
type kid struct {
	n *node
	d *digest.Digest
}

// digest returns the digest of the subtree in k.
func (k kid) digest() digest.Digest {
	if k.d != nil {
		return *k.d
	}
	return k.n.digest()
}

const (
	memoUnset uint32 = iota
	memoWriting
	memoValid
	// memoOwned is a flag beside the state: the node belongs to the
	// one unpublished transaction that can reach it.
	memoOwned uint32 = 4
)

// owned reports whether the running transaction may edit n in place.
func (n *node) owned() bool { return n.memo.Load()&memoOwned != 0 }

// forget drops the memoized digest of an owned node that is about to
// change; a node never hashed since its last edit needs no store.
func (n *node) forget() {
	if n.memo.Load() != memoOwned {
		n.memo.Store(memoOwned)
	}
}

// release ends a transaction's ownership of n, which it owns, and of
// the nodes under it. Every owned node hangs under an owned parent (a
// transaction links what it creates only into nodes it created), so the
// walk stops at the first node of the pre-state on every path.
func release(n *node) {
	n.memo.Store(n.memo.Load() &^ memoOwned)
	for _, k := range n.kids {
		if k.n != nil && k.n.owned() {
			release(k.n)
		}
	}
}

// hashCount counts node digest computations, for tests that pin the
// memoization property (unchanged subtrees are never rehashed across
// operations).
var hashCount atomic.Uint64

// New returns an empty tree with the given branching factor (maximum
// keys per node). order == 0 selects DefaultOrder. New panics on an
// order below MinOrder: the branching factor is a static configuration
// choice, not runtime input.
func New(order int) *Tree {
	if order == 0 {
		order = DefaultOrder
	}
	if order < MinOrder || order > math.MaxInt32 {
		panic(fmt.Sprintf("merkle: order %d outside [%d, %d]", order, MinOrder, math.MaxInt32))
	}
	return &Tree{order: order}
}

// ctx returns the context of a one-shot operation on t.
func (t *Tree) ctx() ctx { return ctx{order: int32(t.order)} }

// minKeys is the underflow threshold: non-root nodes must hold at least
// this many keys.
func (t *Tree) minKeys() int { return t.order / 2 }

// RootDigest returns M(D), the root hash committing to the entire tree
// contents. The empty tree has the fixed digest digest.Empty().
func (t *Tree) RootDigest() digest.Digest { return t.root.digest() }

// digest computes (and memoizes) a node's digest. Immutability makes
// the lazy cache sound: a node's digest never changes after the node is
// linked into a tree, so unchanged subtrees are never rehashed across
// operations. Digests are computed outside the server's ordered section
// (the pipelined VO build runs concurrently on structurally shared
// persistent trees), so the memo inside the node has a publication
// rule: exactly one goroutine wins CompareAndSwap(unset -> writing),
// writes dig and publishes it with Store(valid); everyone who does not
// read valid — losers of the swap included — returns the value they
// computed themselves and never reads the field. Racing computations
// are idempotent, so all of them return the same digest. An owned node
// has one reader, its transaction, and keeps its flag through the swap.
//
// The preimage is the domain and the key count, then in a leaf each key
// followed by its value, in an internal node every key and then every
// child's digest; keys and values are length-prefixed (Hasher.Bytes).
func (n *node) digest() digest.Digest {
	if n == nil {
		return digest.Empty()
	}
	m := n.memo.Load()
	if m&^memoOwned == memoValid {
		return n.dig
	}
	own := m & memoOwned
	hashCount.Add(1)
	var kbuf, vbuf [stackEntries + 1]int
	enc := n.enc
	l := layoutOf(enc, n.leaf, kbuf[:0], vbuf[:0])
	var h *digest.Hasher
	if n.leaf {
		h = digest.NewHasher(digest.DomainLeaf)
		h.Uint64(uint64(l.count))
		for i := 0; i < l.count; i++ {
			h.Bytes(enc[l.k[i]:l.k[i+1]])
			h.Bytes(enc[l.v[i]:l.v[i+1]])
		}
	} else {
		h = digest.NewHasher(digest.DomainInternal)
		h.Uint64(uint64(l.count))
		for i := 0; i < l.count; i++ {
			h.Bytes(enc[l.k[i]:l.k[i+1]])
		}
		for _, k := range n.kids {
			h.Digest(k.digest())
		}
	}
	d := h.Sum()
	if n.memo.CompareAndSwap(own|memoUnset, own|memoWriting) {
		n.dig = d
		n.memo.Store(own | memoValid)
	}
	return d
}

// An entry is one key of a node and, in a leaf, its value: windows
// onto a node's encoding.
type entry struct {
	key, val []byte
}

// stackEntries is how many entries a node of DefaultOrder holds when
// overfull: buffers of that many (and one more offset) on the stack
// decode any node such a tree has without allocating.
const stackEntries = DefaultOrder + 1

// entries appends the entries of n to buf.
func (n *node) entries(buf []entry) []entry {
	var kbuf, vbuf [stackEntries + 1]int
	l := layoutOf(n.enc, n.leaf, kbuf[:0], vbuf[:0])
	for i := 0; i < l.count; i++ {
		e := entry{key: window(n.enc, l.k, i)}
		if n.leaf {
			e.val = window(n.enc, l.v, i)
		}
		buf = append(buf, e)
	}
	return buf
}

// A layout is where the strings of a node's encoding lie: key i is
// enc[k[i]:k[i+1]] and, in a leaf, value i is enc[v[i]:v[i+1]]. The key
// lengths begin at lens, a leaf's value lengths at k[count].
type layout struct {
	count, lens int
	k, v        []int
}

// layoutOf decodes the layout of the encoding enc into kbuf and, for a
// leaf, vbuf.
func layoutOf(enc []byte, leaf bool, kbuf, vbuf []int) layout {
	var l layout
	l.count, l.lens = uvarint(enc, 0)
	l.k = spans(enc, l.lens, l.count, kbuf)
	if leaf {
		l.v = spans(enc, l.k[l.count], l.count, vbuf)
	}
	return l
}

// window returns string i of enc at offsets off, capacity-clipped.
func window(enc []byte, off []int, i int) []byte {
	return enc[off[i]:off[i+1]:off[i+1]]
}

// spans appends to off where the strings of the strings body at enc[p]
// lie — count lengths, then their bytes: string i is
// enc[off[i]:off[i+1]], and the last offset is where the body ends.
// enc is grammatical: VO.Tree checked it or this package wrote it.
func spans(enc []byte, p, count int, off []int) []int {
	base := len(off)
	off = slices.Grow(off, count+1)[:base+count+1]
	lens, at := enc[p:p+count], p+count
	off[base] = at
	o := off[base+1 : base+1+len(lens)]
	var high byte
	for i, c := range lens {
		high |= c
		at += int(c)
		o[i] = at
	}
	if high < 0x80 {
		return off // every length took one byte, as nearly all do
	}
	at = skip(enc, p, count)
	off[base] = at
	for i := range o {
		var l int
		l, p = uvarint(enc, p)
		at += l
		o[i] = at
	}
	return off
}

// rank returns how many of the sorted strings enc[off[i]:off[i+1]] sort
// below key or, with orEqual, not above it.
func rank(enc []byte, off []int, key string, orEqual bool) int {
	lo, hi := 0, len(off)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		w := enc[off[m]:off[m+1]]
		var below bool
		if orEqual {
			below = string(w) <= key
		} else {
			below = string(w) < key
		}
		if below {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// uvarint reads the uvarint at enc[p], which this package wrote or
// VO.Tree checked, and returns it with the offset after it. It is small
// enough to inline.
func uvarint(enc []byte, p int) (v, next int) {
	var u, shift uint
	for {
		c := enc[p]
		p++
		u |= uint(c&0x7f) << shift
		if c < 0x80 {
			return int(u), p
		}
		shift += 7
	}
}

// skip returns the offset after the n uvarints at enc[p].
func skip(enc []byte, p, n int) int {
	for ; n > 0; n-- {
		_, p = uvarint(enc, p)
	}
	return p
}

// count returns the number of keys of n.
func (n *node) count() int {
	c, _ := uvarint(n.enc, 0)
	return c
}

// encode returns the body of a node holding es, in one exactly sized
// allocation: the count, the key lengths, the key bytes and, in a
// leaf, the value lengths and the value bytes.
func encode(leaf bool, es []entry) []byte {
	size := binenc.UvarintLen(uint64(len(es)))
	for _, e := range es {
		size += binenc.UvarintLen(uint64(len(e.key))) + len(e.key)
		if leaf {
			size += binenc.UvarintLen(uint64(len(e.val))) + len(e.val)
		}
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(len(es)))
	for _, e := range es {
		b = binary.AppendUvarint(b, uint64(len(e.key)))
	}
	for _, e := range es {
		b = append(b, e.key...)
	}
	if leaf {
		for _, e := range es {
			b = binary.AppendUvarint(b, uint64(len(e.val)))
		}
		for _, e := range es {
			b = append(b, e.val...)
		}
	}
	return b
}

// run returns the encoding of entries [from, to) of the node whose
// encoding enc has layout l. A run of entries lies contiguously in each
// region of the encoding — key lengths, key bytes and, in a leaf, value
// lengths and value bytes — so it is a new count and four copies.
func run(enc []byte, l layout, from, to int) []byte {
	kl := skip(enc, l.lens, from)
	klEnd := skip(enc, kl, to-from)
	size := binenc.UvarintLen(uint64(to-from)) + klEnd - kl + l.k[to] - l.k[from]
	var vl, vlEnd int
	if l.v != nil {
		vl = skip(enc, l.k[l.count], from)
		vlEnd = skip(enc, vl, to-from)
		size += vlEnd - vl + l.v[to] - l.v[from]
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(to-from))
	b = append(append(b, enc[kl:klEnd]...), enc[l.k[from]:l.k[to]]...)
	if l.v != nil {
		b = append(append(b, enc[vl:vlEnd]...), enc[l.v[from]:l.v[to]]...)
	}
	return b
}

// A slot locates one entry of a leaf in its encoding: where its key
// length, key bytes, value length and value bytes begin, and the
// lengths and length widths of its key and value. The slot of a key
// the leaf does not hold is where inserting it puts its fields. Get
// reads a leaf through a slot, and put and delete edit one by copying
// the bytes around the slot instead of re-encoding the other entries.
type slot struct {
	kl, kb, vl, vb int
	klen, kw       int
	vlen, vw       int
}

// emptyLeaf is the encoding of a leaf without keys, which the first
// put into an empty tree inserts into.
var emptyLeaf = []byte{0}

// find locates key in the leaf encoding enc: the slot of the entry
// holding it, or of the first entry above it, and whether enc holds it.
func find(enc []byte, key string) (s slot, found bool) {
	var kbuf, vbuf [stackEntries + 1]int
	l := layoutOf(enc, true, kbuf[:0], vbuf[:0])
	i := rank(enc, l.k, key, false)
	s.kl, s.kb = skip(enc, l.lens, i), l.k[i]
	s.vl, s.vb = skip(enc, l.k[l.count], i), l.v[i]
	if i < l.count {
		s.klen, s.vlen = l.k[i+1]-l.k[i], l.v[i+1]-l.v[i]
		s.kw, s.vw = binenc.UvarintLen(uint64(s.klen)), binenc.UvarintLen(uint64(s.vlen))
		found = string(enc[l.k[i]:l.k[i+1]]) == key
	}
	return s, found
}

// value returns the value in slot s of enc as a capacity-clipped
// window.
func (s slot) value(enc []byte) []byte {
	end := s.vb + s.vlen
	return enc[s.vb:end:end]
}

// overwrite returns a copy of the leaf encoding enc with val in slot s,
// in memory c gives it.
func (s slot) overwrite(c *ctx, enc, val []byte) []byte {
	vl := binenc.UvarintLen(uint64(len(val)))
	b := c.encoding(len(enc) - s.vw - s.vlen + vl + len(val))
	b = binary.AppendUvarint(append(b, enc[:s.vl]...), uint64(len(val)))
	b = append(append(b, enc[s.vl+s.vw:s.vb]...), val...)
	return append(b, enc[s.vb+s.vlen:]...)
}

// insert returns a copy of the leaf encoding enc with key and val in
// slot s, in memory c gives it.
func (s slot) insert(c *ctx, enc []byte, key string, val []byte) []byte {
	count, c0 := uvarint(enc, 0)
	size := len(enc) - c0 + binenc.UvarintLen(uint64(count+1)) +
		binenc.UvarintLen(uint64(len(key))) + len(key) + binenc.UvarintLen(uint64(len(val))) + len(val)
	b := binary.AppendUvarint(c.encoding(size), uint64(count+1))
	b = binary.AppendUvarint(append(b, enc[c0:s.kl]...), uint64(len(key)))
	b = append(append(b, enc[s.kl:s.kb]...), key...)
	b = binary.AppendUvarint(append(b, enc[s.kb:s.vl]...), uint64(len(val)))
	b = append(append(b, enc[s.vl:s.vb]...), val...)
	return append(b, enc[s.vb:]...)
}

// remove returns a copy of the leaf encoding enc without the entry in
// slot s, in memory c gives it.
func (s slot) remove(c *ctx, enc []byte) []byte {
	count, c0 := uvarint(enc, 0)
	size := len(enc) - c0 + binenc.UvarintLen(uint64(count-1)) - s.kw - s.klen - s.vw - s.vlen
	b := binary.AppendUvarint(c.encoding(size), uint64(count-1))
	b = append(append(b, enc[c0:s.kl]...), enc[s.kl+s.kw:s.kb]...)
	b = append(append(b, enc[s.kb+s.klen:s.vl]...), enc[s.vl+s.vw:s.vb]...)
	return append(b, enc[s.vb+s.vlen:]...)
}

// childIndex returns the index of the child of internal node n
// responsible for key: the number of separators not above it.
func (n *node) childIndex(key string) int {
	var buf [stackEntries + 1]int
	return rank(n.enc, layoutOf(n.enc, false, buf[:0], nil).k, key, true)
}

// ctx carries per-operation state: the branching factor, the memo word
// new nodes start with (memoOwned inside a transaction, memoUnset for
// the one-shot Tree methods; a transaction also sets voTaken there when
// its VO is taken, and refuses operations from then on) and the memory
// the transaction uses beyond its Recording, if any.
type ctx struct {
	order int32
	mark  uint32
	mem   *txnMem
}

// A txnMem is what a transaction uses beyond its Recording. A recording
// transaction (Tree.Record, Tree.RecordIn) keeps its recorder in set:
// every pre-state node the transaction touches, from which its VO is
// cut. An Arena's replay records nothing and cuts the encodings of the
// leaves it writes from enc, which the arena's next replay reuses: they
// die with the replay's tree.
type txnMem struct {
	record bool
	set    nodeSet
	enc    []byte
}

// encoding returns an empty buffer for a new leaf encoding of exactly n
// bytes: cut from the arena's buffer in an Arena's replay, fresh
// memory in every other transaction, whose trees outlive it.
func (c *ctx) encoding(n int) []byte {
	m := c.mem
	if m == nil || m.record {
		return make([]byte, 0, n)
	}
	if cap(m.enc)-len(m.enc) < n {
		// The encodings cut so far keep the old buffer alive.
		m.enc = make([]byte, 0, max(2*cap(m.enc), n, 512))
	}
	l := len(m.enc)
	m.enc = m.enc[:l+n]
	return m.enc[l : l : l+n]
}

// inlineNodes is how many nodes a nodeSet holds before it spills to a
// map: a single key's root-to-leaf path on a tree of millions of records
// at DefaultOrder, with room to spare for the siblings a rebalancing
// delete visits.
const inlineNodes = 16

// A nodeSet is a recorder: the pre-state nodes a transaction touched.
// The few of a single-key operation are held inline and found by a
// scan; those of a large transaction spill into a map. The zero nodeSet
// is empty.
type nodeSet struct {
	n    int
	few  [inlineNodes]*node
	many map[*node]struct{}
}

// add puts n into s.
func (s *nodeSet) add(n *node) {
	switch {
	case s.many != nil:
		s.many[n] = struct{}{}
	case s.has(n):
	case s.n < len(s.few):
		s.few[s.n] = n
		s.n++
	default:
		s.many = make(map[*node]struct{}, 2*len(s.few))
		for _, m := range s.few {
			s.many[m] = struct{}{}
		}
		s.many[n] = struct{}{}
	}
}

// has reports whether s holds n.
func (s *nodeSet) has(n *node) bool {
	if s.many != nil {
		_, ok := s.many[n]
		return ok
	}
	for _, m := range s.few[:s.n] {
		if m == n {
			return true
		}
	}
	return false
}

// node returns a new node of the running operation.
func (c *ctx) node(leaf bool, enc []byte, kids []kid) *node {
	n := &node{leaf: leaf, enc: enc, kids: kids}
	if c.mark != memoUnset {
		n.memo.Store(c.mark)
	}
	return n
}

func (c *ctx) visit(n *node) {
	if c.mem != nil && c.mem.record && n != nil && !n.owned() {
		c.mem.set.add(n)
	}
}

// Get returns the value stored for key: a window onto the tree's
// bytes, which the caller must not modify.
func (t *Tree) Get(key string) ([]byte, bool) {
	v, ok, err := t.GetErr(key)
	if err != nil {
		// Only possible on trees with pruned subtrees.
		panic("merkle: Get on partial tree; use GetErr: " + err.Error())
	}
	return v, ok
}

// GetErr is Get for trees that may have pruned subtrees (trees rebuilt
// from verification objects).
func (t *Tree) GetErr(key string) ([]byte, bool, error) {
	c := t.ctx()
	return c.get(t.root, key)
}

func (c *ctx) get(k kid, key string) ([]byte, bool, error) {
	for n := k.n; n != nil; n = k.n {
		c.visit(n)
		if !n.leaf {
			k = n.kids[n.childIndex(key)]
			continue
		}
		if s, found := find(n.enc, key); found {
			return s.value(n.enc), true, nil
		}
		return nil, false, nil
	}
	if k.d != nil {
		return nil, false, fmt.Errorf("%w (get %q)", ErrPruned, key)
	}
	return nil, false, nil
}

// Range calls fn for every record with lo <= key < hi, in key order,
// until fn returns false. An empty hi means "no upper bound". The key
// and value fn receives are windows onto the tree's bytes: fn must not
// modify them, and copies what it keeps. Range returns ErrPruned if the
// scan would need a pruned subtree.
func (t *Tree) Range(lo, hi string, fn func(key, val []byte) bool) error {
	c := t.ctx()
	_, err := c.rng(t.root, lo, hi, fn)
	return err
}

func (c *ctx) rng(k kid, lo, hi string, fn func(key, val []byte) bool) (bool, error) {
	n := k.n
	if n == nil {
		if k.d != nil {
			return false, fmt.Errorf("%w (range [%q,%q))", ErrPruned, lo, hi)
		}
		return true, nil
	}
	c.visit(n)
	var buf [stackEntries]entry
	es := n.entries(buf[:0])
	if n.leaf {
		for _, e := range es {
			if string(e.key) < lo {
				continue
			}
			if hi != "" && string(e.key) >= hi {
				return false, nil
			}
			if !fn(e.key, e.val) {
				return false, nil
			}
		}
		return true, nil
	}
	start := n.childIndex(lo)
	// Descend from the child that may contain lo; separators tell us
	// when the upper bound cuts off the scan.
	for i := start; i < len(n.kids); i++ {
		if i > start && hi != "" && string(es[i-1].key) >= hi {
			return false, nil
		}
		cont, err := c.rng(n.kids[i], lo, hi, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// Keys returns all keys in order. Intended for tests and small trees.
func (t *Tree) Keys() []string {
	var ks []string
	_ = t.Range("", "", func(k, _ []byte) bool {
		ks = append(ks, string(k))
		return true
	})
	return ks
}
