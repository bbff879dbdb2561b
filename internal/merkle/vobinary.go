package merkle

import (
	"bytes"
	"fmt"
	"math"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
)

// The wire form of a VO is flat: the order, then the pruned tree in
// preorder.
//
//	VO      = uvarint(order) node
//	node    = 0x00                          absent (the root of an empty tree)
//	        | 0x01 digest[32]               pruned
//	        | 0x02 strings strings          leaf: keys, then as many values
//	        | 0x03 strings node{n+1}        internal: n keys, then n+1 children
//	strings = uvarint(n) n×uvarint(len) bytes
//
// The second strings of a leaf omits its count (it is the keys' n). All
// lengths of a strings come before all of its bytes.
//
// This is the VO's only encoding, in memory as on the wire, and the
// body of a leaf or internal node — everything after its kind byte up
// to its children — is the tree node's own encoding (node.enc), as a
// pruned node's 32 bytes are its child slot's digest (kid.d):
// appendPruned copies node bodies and digests out, into a frame or a
// materialized VO, and VO.Tree hands each node a window onto its body
// and each pruned slot a window onto its digest (voDecoder), with
// nothing in between.
//
// Wire messages, journal records and server snapshots carry these bytes
// as they are (AppendBinary on the way out, ViewVO on the way in); a
// tree's persistent form is the same grammar with nothing pruned
// (serialize.go).
const (
	voAbsent   = 0
	voPruned   = 1
	voLeaf     = 2
	voInternal = 3
)

// maxVODepth bounds the recursion a hostile encoding can drive. An
// honest tree of order >= MinOrder this deep would hold more records
// than any machine can.
const maxVODepth = 64

// appendPruned appends the subtree in k in preorder, keeping the
// content of the nodes in keep (of every node when keep is nil) and
// only the digest of every other. A node's body is already its
// encoding, so an expanded node is its kind byte, its bytes and its
// children. It is the one writer of the grammar: a live VO's frame
// bytes, its materialized bytes and a snapshot's all come from here.
func appendPruned(b []byte, k kid, keep *nodeSet) []byte {
	n := k.n
	if n == nil && k.d == nil {
		return append(b, voAbsent)
	}
	if pruned(n, keep) {
		d := k.digest()
		return append(append(b, voPruned), d[:]...)
	}
	if n.leaf {
		return append(append(b, voLeaf), n.enc...)
	}
	b = append(append(b, voInternal), n.enc...)
	for _, c := range n.kids {
		b = appendPruned(b, c, keep)
	}
	return b
}

// sizePruned returns the length of what appendPruned appends for k and
// keep, counting the expanded nodes and digests into v on the way. It
// reads no digest, so it hashes nothing.
func sizePruned(k kid, keep *nodeSet, v *VO) int {
	n := k.n
	if n == nil && k.d == nil {
		return 1
	}
	if pruned(n, keep) {
		v.digests++
		return 1 + digest.Size
	}
	v.nodes++
	size := 1 + len(n.enc)
	for _, c := range n.kids {
		size += sizePruned(c, keep, v)
	}
	return size
}

// pruned reports whether the slot holding n, which is not absent, is
// written as its digest: n was pruned already, or keep does not hold it.
func pruned(n *node, keep *nodeSet) bool {
	return n == nil || keep != nil && !keep.has(n)
}

// AppendBinary appends the VO's bytes to b. A live VO writes them
// straight from the pre-state nodes it prunes, allocating nothing when
// b has room for Len more bytes: that is how a server's VO reaches its
// response frame without being copied anywhere else first.
func (v *VO) AppendBinary(b []byte) ([]byte, error) {
	if v == nil {
		return nil, errEmptyVO
	}
	v.mu.Lock()
	base, keep, enc := v.base, v.keep, v.enc
	v.mu.Unlock()
	switch {
	case base != nil:
		return appendVO(b, base, keep), nil
	case enc != nil:
		return append(b, enc...), nil
	}
	return nil, errEmptyVO
}

// MarshalBinary returns the VO's own bytes, materializing a live VO,
// which the caller must not modify.
func (v *VO) MarshalBinary() ([]byte, error) {
	if v != nil {
		if enc := v.bytes(); enc != nil {
			return enc, nil
		}
	}
	return nil, errEmptyVO
}

var errEmptyVO = fmt.Errorf("%w: empty VO", ErrMalformedVO)

// ViewVO wraps data, which the caller must own and never modify — the
// wire decoder's frame buffer is both — as a VO. The input is the
// untrusted server's: every count must be backed by the bytes that
// remain, depth is bounded, unknown node kinds, non-minimal integers
// and trailing bytes are rejected — all as ErrMalformedVO, decided
// without allocating. Whether the encoded shape is a valid tree is
// still VO.Tree's call. The scan counts what VO.Tree allocates for.
func ViewVO(data []byte) (*VO, error) {
	v := new(VO)
	if err := v.view(data); err != nil {
		return nil, err
	}
	return v, nil
}

// view makes v the VO of data, as ViewVO does.
func (v *VO) view(data []byte) error {
	s, err := scanVO(data)
	v.enc, v.size, v.nodes, v.digests = data, len(data), int32(s.ExpandedNodes), int32(s.PrunedDigests)
	return err
}

// scanVO checks data against the grammar and sizes it up on the way.
func scanVO(data []byte) (VOStats, error) {
	var s VOStats
	r := binenc.NewReader(data)
	if order := r.Uvarint(); order > math.MaxInt32 {
		r.Fail("order %d", order)
	}
	scanNode(r, &s, 0)
	if err := r.Close(); err != nil {
		return s, fmt.Errorf("%w: %v", ErrMalformedVO, err)
	}
	return s, nil
}

func scanNode(r *binenc.Reader, s *VOStats, depth int) {
	if depth > maxVODepth {
		r.Fail("deeper than %d levels", maxVODepth)
		return
	}
	switch kind := r.Byte(); kind {
	case voAbsent:
	case voPruned:
		r.View(digest.Size)
		s.PrunedDigests++
		s.ApproxBytes += digest.Size
	case voLeaf, voInternal:
		count := r.Count(1)
		s.ExpandedNodes++
		s.ApproxBytes += skipLensBytes(r, count)
		if kind == voLeaf {
			s.Records += count
			s.ApproxBytes += skipLensBytes(r, count)
			return
		}
		for i := 0; i <= count && r.Err() == nil; i++ {
			scanNode(r, s, depth+1)
		}
	default:
		r.Fail("unknown node kind %d", kind)
	}
}

// readLens consumes count lengths and returns a cursor positioned at
// the first of them plus their sum. Callers allocate per-count only
// after it succeeded, i.e. after count length bytes were really there.
func readLens(r *binenc.Reader, count int) (lens binenc.Reader, total int) {
	lens = *r
	for i := 0; i < count; i++ {
		total += r.Count(1)
		if total > r.Remaining() {
			r.Fail("lengths exceed the %d bytes left", r.Remaining())
			return lens, 0
		}
	}
	return lens, total
}

func skipLensBytes(r *binenc.Reader, count int) int {
	_, total := readLens(r, count)
	r.View(total)
	return total
}

// voDecoder materializes the flat form as tree nodes, making every
// check on the way: nothing it returns can make a replay panic. It cuts
// expanded nodes and child slots from the front of two slabs, which the
// VO's counts sized, and fails rather than reach past either.
type voDecoder struct {
	r     binenc.Reader // over data; node bodies and digests are windows onto it
	data  []byte
	order int
	mark  uint32 // memo word of every expanded node
	nodes []node // the node slab's unused rest
	kids  []kid  // the slot slab's unused rest
}

// kid decodes one node into k, reporting false for an absent one (and
// after any failure, which sticks in d.r).
func (d *voDecoder) kid(k *kid, depth int) bool {
	if depth > maxVODepth {
		d.r.Fail("deeper than %d levels", maxVODepth)
		return false
	}
	switch kind := d.r.Byte(); kind {
	case voAbsent:
		return false
	case voPruned:
		b := d.r.View(digest.Size)
		if d.r.Err() != nil {
			return false // too short to be a digest
		}
		if k.d = (*digest.Digest)(b); k.d.IsZero() {
			d.r.Fail("pruned node without digest")
		}
	case voLeaf, voInternal:
		if len(d.nodes) == 0 {
			d.r.Fail("more expanded nodes than counted")
			return false
		}
		n := &d.nodes[0]
		d.nodes, k.n = d.nodes[1:], n
		n.leaf = kind == voLeaf
		n.memo.Store(d.mark)
		var keys int
		n.enc, keys = d.body(n.leaf)
		if n.leaf || d.r.Err() != nil {
			break
		}
		count := keys + 1
		if count > len(d.kids) {
			d.r.Fail("%d children exceed the %d slots counted", count, len(d.kids))
			break
		}
		n.kids, d.kids = d.kids[:count:count], d.kids[count:]
		for i := range n.kids {
			if !d.kid(&n.kids[i], depth+1) {
				d.r.Fail("absent child")
				break
			}
		}
	default:
		d.r.Fail("unknown node kind %d", kind)
	}
	return d.r.Err() == nil
}

// body reads a node's body — a key count no greater than the order,
// sorted and distinct keys and, in a leaf, as many values — and
// returns it as a capacity-clipped window onto the data, with its key
// count.
func (d *voDecoder) body(leaf bool) ([]byte, int) {
	start := d.pos()
	count := d.r.Count(1)
	if count > d.order {
		d.r.Fail("node with %d keys exceeds order %d", count, d.order)
		return nil, 0
	}
	lens, total := readLens(&d.r, count)
	off := d.pos()
	d.r.View(total)
	var prev []byte
	for i := 0; i < count && d.r.Err() == nil; i++ {
		end := off + int(lens.Uvarint())
		key := d.data[off:end]
		if i > 0 && bytes.Compare(key, prev) <= 0 {
			d.r.Fail("unsorted or duplicate key %q", key)
		}
		prev, off = key, end
	}
	if leaf {
		skipLensBytes(&d.r, count)
	}
	if d.r.Err() != nil {
		return nil, 0
	}
	end := d.pos()
	return d.data[start:end:end], count
}

// pos is the offset of the next byte d.r reads.
func (d *voDecoder) pos() int { return len(d.data) - d.r.Remaining() }
