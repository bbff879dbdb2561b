package merkle

import (
	"fmt"
	"slices"
)

// Put returns a new tree in which key maps to val, leaving the receiver
// unchanged. The value is copied into the tree: the caller may reuse
// val afterwards.
func (t *Tree) Put(key string, val []byte) *Tree {
	nt, err := t.PutErr(key, val)
	if err != nil {
		panic("merkle: Put on partial tree; use PutErr: " + err.Error())
	}
	return nt
}

// PutErr is Put for trees that may have pruned subtrees.
func (t *Tree) PutErr(key string, val []byte) (*Tree, error) {
	c := t.ctx()
	return t.putCtx(&c, key, val)
}

func (t *Tree) putCtx(c *ctx, key string, val []byte) (*Tree, error) {
	if t.root == (kid{}) {
		s, _ := find(emptyLeaf, key)
		root := c.node(true, s.insert(c, emptyLeaf, key, val), nil)
		return t.next(kid{n: root}, t.resized(1)), nil
	}
	nr, added, err := c.put(t.root, key, val)
	if err != nil {
		return nil, err
	}
	if nr.count() > t.order {
		left, sep, right := c.split(nr)
		nr = c.node(false, encode(false, []entry{{key: sep}}), []kid{{n: left}, {n: right}})
	}
	size := t.size
	if added {
		size = t.resized(1)
	}
	return t.next(kid{n: nr}, size), nil
}

// resized returns t's record count changed by d: the -1 of a tree
// rebuilt from a verification object stays -1.
func (t *Tree) resized(d int) int {
	if t.size < 0 {
		return -1
	}
	return t.size + d
}

// next returns the tree that follows t in its transaction: t itself,
// updated, when the transaction owns t's root — it then made t too and
// has not handed it out — otherwise a new one.
func (t *Tree) next(root kid, size int) *Tree {
	if t.root.n != nil && t.root.n.owned() {
		t.root, t.size = root, size
		return t
	}
	return &Tree{order: t.order, root: root, size: size}
}

// put inserts into the subtree rooted at n, returning a node that may
// be overfull (up to order+1 keys); the caller splits it. The node it
// returns is n itself, edited in place, when the transaction owns n,
// and a new node otherwise. Either way a leaf gets a new encoding: the
// one it had may be a window onto a VO's bytes or be shared with a
// node of another tree, and bytes are never written in place. An
// internal node that neither gains a key nor absorbs a split — every
// internal level of a non-splitting put — comes from edit, which
// shares n's encoding.
func (c *ctx) put(k kid, key string, val []byte) (nn *node, added bool, err error) {
	n := k.n
	if n == nil {
		return nil, false, fmt.Errorf("%w (put %q)", ErrPruned, key)
	}
	c.visit(n)
	if n.leaf {
		s, found := find(n.enc, key)
		if found {
			return c.with(n, s.overwrite(c, n.enc, val), nil), false, nil
		}
		return c.with(n, s.insert(c, n.enc, key, val), nil), true, nil
	}
	idx := n.childIndex(key)
	nk, added, err := c.put(n.kids[idx], key, val)
	if err != nil {
		return nil, false, err
	}
	if nk.count() <= int(c.order) {
		nn = c.edit(n)
		nn.kids[idx] = kid{n: nk}
		return nn, added, nil
	}
	left, sep, right := c.split(nk)
	var buf [stackEntries]entry
	es := slices.Insert(n.entries(buf[:0]), idx, entry{key: sep})
	nn = c.with(n, encode(false, es), inserted(n.kids, idx+1, kid{n: right}))
	nn.kids[idx] = kid{n: left}
	return nn, added, nil
}

// edit returns the node in which child slots of n may be replaced: n
// itself, its memoized digest forgotten, when the transaction owns it;
// otherwise a copy with its own slots that shares n's encoding. A
// caller that changes keys or values gives the result a new encoding.
func (c *ctx) edit(n *node) *node {
	if n.owned() {
		n.forget()
		return n
	}
	return c.node(n.leaf, n.enc, slices.Clone(n.kids))
}

// with returns the node that takes n's place with the given encoding
// and kids: n itself when the transaction owns it, otherwise a new
// node.
func (c *ctx) with(n *node, enc []byte, kids []kid) *node {
	if !n.owned() {
		return c.node(n.leaf, enc, kids)
	}
	n.forget()
	n.enc, n.kids = enc, kids
	return n
}

// split divides an overfull node into two nodes and the separator key
// to push into the parent. For a leaf the separator is the right
// node's first key (B+-tree style: all records stay in leaves); for an
// internal node the middle key moves up. The separator is a window onto
// n's encoding, which the parent's new encoding copies. Each half gets
// an exactly sized encoding and slots of its own, so nothing keeps
// the overfull node's bytes reachable.
func (c *ctx) split(n *node) (left *node, sep []byte, right *node) {
	var kbuf, vbuf [stackEntries + 1]int
	l := layoutOf(n.enc, n.leaf, kbuf[:0], vbuf[:0])
	mid := l.count / 2
	sep = window(n.enc, l.k, mid)
	if n.leaf {
		return c.node(true, run(n.enc, l, 0, mid), nil), sep, c.node(true, run(n.enc, l, mid, l.count), nil)
	}
	left = c.node(false, run(n.enc, l, 0, mid), slices.Clone(n.kids[:mid+1]))
	right = c.node(false, run(n.enc, l, mid+1, l.count), slices.Clone(n.kids[mid+1:]))
	return left, sep, right
}

// inserted returns an exactly sized copy of s with v at index i.
func inserted[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}
