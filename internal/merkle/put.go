package merkle

import (
	"fmt"
	"slices"
)

// Put returns a new tree in which key maps to val, leaving the receiver
// unchanged. The value slice is stored as-is; callers must not mutate
// it afterwards (internal/vdb copies values at its boundary).
func (t *Tree) Put(key string, val []byte) *Tree {
	nt, err := t.PutErr(key, val)
	if err != nil {
		panic("merkle: Put on partial tree; use PutErr: " + err.Error())
	}
	return nt
}

// PutErr is Put for trees that may contain pruned nodes.
func (t *Tree) PutErr(key string, val []byte) (*Tree, error) {
	c := t.ctx()
	return t.putCtx(&c, key, val)
}

func (t *Tree) putCtx(c *ctx, key string, val []byte) (*Tree, error) {
	if t.root == nil {
		root := c.node(true, []string{key}, [][]byte{val}, nil)
		return t.next(root, t.resized(1)), nil
	}
	nr, added, err := c.put(t.root, key, val)
	if err != nil {
		return nil, err
	}
	if len(nr.keys) > t.order {
		left, sep, right := c.split(nr)
		nr = c.node(false, []string{sep}, nil, []*node{left, right})
	}
	size := t.size
	if added {
		size = t.resized(1)
	}
	return t.next(nr, size), nil
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
func (t *Tree) next(root *node, size int) *Tree {
	if t.root != nil && t.root.owned() {
		t.root, t.size = root, size
		return t
	}
	return &Tree{order: t.order, root: root, size: size}
}

// put inserts into the subtree rooted at n, returning a node that may
// be overfull (up to order+1 keys); the caller splits it. The node it
// returns is n itself, edited in place, when the transaction owns n,
// and a new node otherwise. A node that neither gains a key nor
// absorbs a split — every internal level of a non-splitting put, and
// the leaf of an overwrite — comes from edit, whose copy shares n's
// keys array instead of copying it: nothing ever writes into a keys
// array a node was given (with replaces it, rebalance takes a private
// copy first), so the alias is safe on either side (its capacity is
// clipped all the same).
func (c *ctx) put(n *node, key string, val []byte) (nn *node, added bool, err error) {
	c.visit(n)
	if n.pruned {
		return nil, false, fmt.Errorf("%w (put %q)", ErrPruned, key)
	}
	if n.leaf {
		i := searchKeys(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			nn = c.edit(n)
			nn.vals[i] = val
			return nn, false, nil
		}
		return c.with(n, inserted(n.keys, i, key), inserted(n.vals, i, val), nil), true, nil
	}
	idx := childIndex(n, key)
	nk, added, err := c.put(n.kids[idx], key, val)
	if err != nil {
		return nil, false, err
	}
	if len(nk.keys) <= int(c.order) {
		nn = c.edit(n)
		nn.kids[idx] = nk
		return nn, added, nil
	}
	left, sep, right := c.split(nk)
	nn = c.with(n, inserted(n.keys, idx, sep), nil, inserted(n.kids, idx+1, right))
	nn.kids[idx] = left
	return nn, added, nil
}

// edit returns the node in which one vals or kids entry of n may be
// replaced: n itself, its memoized digest forgotten, when the
// transaction owns it; otherwise a copy sharing n's keys.
func (c *ctx) edit(n *node) *node {
	if n.owned() {
		n.forget()
		return n
	}
	return c.node(n.leaf, n.keys[:len(n.keys):len(n.keys)], slices.Clone(n.vals), slices.Clone(n.kids))
}

// with returns the node that takes n's place with the given arrays: n
// itself when the transaction owns it, otherwise a new node.
func (c *ctx) with(n *node, keys []string, vals [][]byte, kids []*node) *node {
	if !n.owned() {
		return c.node(n.leaf, keys, vals, kids)
	}
	n.forget()
	n.keys, n.vals, n.kids = keys, vals, kids
	return n
}

// split divides an overfull node into two nodes and the separator key
// to push into the parent. For a leaf the separator is a copy of the
// right node's first key (B+-tree style: all records stay in leaves);
// for an internal node the middle key moves up. Each half gets exactly
// sized arrays of its own: two windows onto the overfull node's arrays
// would keep its slack reachable for as long as either half — or any
// later node sharing a half's keys — stays in a live tree.
func (c *ctx) split(n *node) (left *node, sep string, right *node) {
	mid := len(n.keys) / 2
	if n.leaf {
		left = c.node(true, slices.Clone(n.keys[:mid]), slices.Clone(n.vals[:mid]), nil)
		right = c.node(true, slices.Clone(n.keys[mid:]), slices.Clone(n.vals[mid:]), nil)
		return left, right.keys[0], right
	}
	left = c.node(false, slices.Clone(n.keys[:mid]), nil, slices.Clone(n.kids[:mid+1]))
	right = c.node(false, slices.Clone(n.keys[mid+1:]), nil, slices.Clone(n.kids[mid+1:]))
	return left, n.keys[mid], right
}

func searchKeys(keys []string, key string) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := (lo + hi) / 2
		if keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// removed returns an exactly sized copy of s without index i.
func removed[T any](s []T, i int) []T {
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

// inserted returns an exactly sized copy of s with v at index i.
func inserted[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}
