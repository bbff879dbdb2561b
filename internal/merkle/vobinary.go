package merkle

import (
	"encoding/binary"
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
// lengths of a strings come before all of its bytes, so a decoder copies
// each node's keys (and a leaf's values) out of the input in one piece.
//
// encoding/gob uses MarshalBinary/UnmarshalBinary for every *VO field,
// so protocol responses, forest legs and audit-journal records carry
// this form without knowing it.
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

// MarshalBinary implements encoding.BinaryMarshaler. Shapes the grammar
// cannot carry (a pruned node with content, a leaf whose values do not
// pair with its keys, an internal node without exactly one more child
// than keys) are ErrMalformedVO; Recording.VO never produces them.
func (v *VO) MarshalBinary() ([]byte, error) {
	if v == nil || v.Order < 0 {
		return nil, fmt.Errorf("%w: nil or negative-order VO", ErrMalformedVO)
	}
	size, err := voNodeSize(v.Root, 0)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, binenc.UvarintLen(uint64(v.Order))+size)
	b = binary.AppendUvarint(b, uint64(v.Order))
	return appendVONode(b, v.Root), nil
}

// voNodeSize validates n's shape and returns its encoded size, so the
// encoder allocates once and cannot fail midway.
func voNodeSize(n *VONode, depth int) (int, error) {
	switch {
	case n == nil:
		return 1, nil
	case depth > maxVODepth:
		return 0, fmt.Errorf("%w: deeper than %d levels", ErrMalformedVO, maxVODepth)
	case n.Pruned:
		if len(n.Keys)+len(n.Vals)+len(n.Kids) > 0 {
			return 0, fmt.Errorf("%w: pruned node with content", ErrMalformedVO)
		}
		return 1 + digest.Size, nil
	}
	size := 1 + binenc.UvarintLen(uint64(len(n.Keys)))
	for _, k := range n.Keys {
		size += binenc.UvarintLen(uint64(len(k))) + len(k)
	}
	if n.Leaf {
		if len(n.Vals) != len(n.Keys) || len(n.Kids) != 0 {
			return 0, fmt.Errorf("%w: bad leaf shape (%d keys, %d vals, %d kids)",
				ErrMalformedVO, len(n.Keys), len(n.Vals), len(n.Kids))
		}
		for _, val := range n.Vals {
			size += binenc.UvarintLen(uint64(len(val))) + len(val)
		}
		return size, nil
	}
	if len(n.Kids) != len(n.Keys)+1 || len(n.Vals) != 0 {
		return 0, fmt.Errorf("%w: bad internal shape (%d keys, %d kids)",
			ErrMalformedVO, len(n.Keys), len(n.Kids))
	}
	for _, kid := range n.Kids {
		s, err := voNodeSize(kid, depth+1)
		if err != nil {
			return 0, err
		}
		size += s
	}
	return size, nil
}

func appendVONode(b []byte, n *VONode) []byte {
	switch {
	case n == nil:
		return append(b, voAbsent)
	case n.Pruned:
		return append(append(b, voPruned), n.Digest[:]...)
	case n.Leaf:
		b = append(b, voLeaf)
	default:
		b = append(b, voInternal)
	}
	b = binary.AppendUvarint(b, uint64(len(n.Keys)))
	for _, k := range n.Keys {
		b = binary.AppendUvarint(b, uint64(len(k)))
	}
	for _, k := range n.Keys {
		b = append(b, k...)
	}
	if n.Leaf {
		for _, val := range n.Vals {
			b = binary.AppendUvarint(b, uint64(len(val)))
		}
		for _, val := range n.Vals {
			b = append(b, val...)
		}
		return b
	}
	for _, kid := range n.Kids {
		b = appendVONode(b, kid)
	}
	return b
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The input is
// the untrusted server's: every count must be backed by the bytes that
// remain, depth is bounded, unknown node kinds and trailing bytes are
// rejected — all as ErrMalformedVO — so decoding allocates at most a
// fixed multiple of len(data) and never panics. It retains nothing of
// data: each node's keys and values are copied out once, as one piece.
// Whether the decoded shape is a valid tree is still VO.Tree's call.
func (v *VO) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	order := r.Uvarint()
	if order > math.MaxInt32 {
		r.Fail("order %d", order)
	}
	root := new(VONode)
	if !readVONode(r, root, 0) {
		root = nil
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedVO, err)
	}
	v.Order, v.Root = int(order), root
	return nil
}

// readVONode decodes one node into n, reporting false for an absent
// one (and after any failure, which sticks in r).
func readVONode(r *binenc.Reader, n *VONode, depth int) bool {
	if depth > maxVODepth {
		r.Fail("deeper than %d levels", maxVODepth)
		return false
	}
	switch kind := r.Byte(); kind {
	case voAbsent:
		return false
	case voPruned:
		n.Pruned = true
		copy(n.Digest[:], r.View(digest.Size))
	case voLeaf:
		n.Leaf = true
		count := r.Count(1)
		n.Keys = readStrings(r, count)
		n.Vals = readByteSlices(r, count)
	case voInternal:
		n.Keys = readStrings(r, r.Count(1))
		count := len(n.Keys) + 1
		if r.Err() != nil || count > r.Remaining() {
			r.Fail("%d children exceed the %d bytes left", count, r.Remaining())
			break
		}
		// One slab for all children: siblings live and die together.
		slab := make([]VONode, count)
		n.Kids = make([]*VONode, count)
		for i := range slab {
			if readVONode(r, &slab[i], depth+1) {
				n.Kids[i] = &slab[i]
			}
		}
	default:
		r.Fail("unknown node kind %d", kind)
	}
	return r.Err() == nil
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

func readStrings(r *binenc.Reader, count int) []string {
	if count == 0 {
		return nil
	}
	lens, total := readLens(r, count)
	blob := string(r.View(total))
	if r.Err() != nil {
		return nil
	}
	out := make([]string, count)
	for i := range out {
		n := int(lens.Uvarint())
		out[i], blob = blob[:n], blob[n:]
	}
	return out
}

func readByteSlices(r *binenc.Reader, count int) [][]byte {
	if count == 0 {
		return nil
	}
	lens, total := readLens(r, count)
	blob := append([]byte(nil), r.View(total)...)
	if r.Err() != nil {
		return nil
	}
	out := make([][]byte, count)
	for i := range out {
		n := int(lens.Uvarint())
		out[i], blob = blob[:n:n], blob[n:]
	}
	return out
}
