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
	c := &ctx{order: t.order}
	return t.putCtx(c, key, val, false)
}

// PutOwned is PutErr for a caller that owns the receiver outright — a
// tree VO.Tree just returned, or one PutOwned or DeleteErr derived from
// such a tree — and gives it up: nodes on the path to key may be edited
// in place instead of copied, so the receiver must not be used again.
// Trees that share nodes with the receiver (a DeleteErr result and its
// receiver, say) are given up with it.
func (t *Tree) PutOwned(key string, val []byte) (*Tree, error) {
	c := &ctx{order: t.order}
	return t.putCtx(c, key, val, true)
}

func (t *Tree) putCtx(c *ctx, key string, val []byte, owned bool) (*Tree, error) {
	if t.root == nil {
		root := &node{leaf: true, keys: []string{key}, vals: [][]byte{val}}
		return &Tree{order: t.order, root: root, size: 1}, nil
	}
	nr, added, err := c.put(t.root, key, val, owned)
	if err != nil {
		return nil, err
	}
	if len(nr.keys) > t.order {
		left, sep, right := split(nr)
		nr = &node{keys: []string{sep}, kids: []*node{left, right}}
	}
	size := t.size
	if added {
		size++
	}
	return &Tree{order: t.order, root: nr, size: size}, nil
}

// put inserts into the subtree rooted at n, returning a node that may
// be overfull (up to order+1 keys); the caller splits it. A node that
// neither gains a key nor absorbs a split — every internal level of a
// non-splitting put, and the leaf of an overwrite — comes from edit:
// n itself when the caller owns the tree, else a new node that shares
// n's keys array instead of copying it: published nodes are
// immutable, inserted always builds a fresh array, and delete edits
// only clones, so nothing ever writes through the alias (its capacity
// is clipped all the same).
func (c *ctx) put(n *node, key string, val []byte, owned bool) (nn *node, added bool, err error) {
	c.visit(n)
	if n.pruned {
		return nil, false, fmt.Errorf("%w (put %q)", ErrPruned, key)
	}
	if n.leaf {
		i := searchKeys(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			nn = edit(n, owned)
			nn.vals[i] = val
			return nn, false, nil
		}
		return &node{leaf: true, keys: inserted(n.keys, i, key), vals: inserted(n.vals, i, val)}, true, nil
	}
	idx := childIndex(n, key)
	nk, added, err := c.put(n.kids[idx], key, val, owned)
	if err != nil {
		return nil, false, err
	}
	if len(nk.keys) <= c.order {
		nn = edit(n, owned)
		nn.kids[idx] = nk
		return nn, added, nil
	}
	left, sep, right := split(nk)
	nn = &node{keys: inserted(n.keys, idx, sep), kids: inserted(n.kids, idx+1, right)}
	nn.kids[idx] = left
	return nn, added, nil
}

// edit returns the node in which one vals or kids entry of n may be
// replaced: n itself, its memoized digest forgotten, when the caller
// owns the tree; otherwise a copy sharing n's keys.
func edit(n *node, owned bool) *node {
	if owned {
		n.memo.Store(memoUnset)
		return n
	}
	return &node{leaf: n.leaf, keys: n.keys[:len(n.keys):len(n.keys)], vals: slices.Clone(n.vals), kids: slices.Clone(n.kids)}
}

// split divides an overfull node into two nodes and the separator key
// to push into the parent. For a leaf the separator is a copy of the
// right node's first key (B+-tree style: all records stay in leaves);
// for an internal node the middle key moves up. Each half gets exactly
// sized arrays of its own: two windows onto the overfull node's arrays
// would keep its slack reachable for as long as either half — or any
// later node sharing a half's keys — stays in a live tree.
func split(n *node) (left *node, sep string, right *node) {
	mid := len(n.keys) / 2
	if n.leaf {
		left = &node{leaf: true, keys: slices.Clone(n.keys[:mid]), vals: slices.Clone(n.vals[:mid])}
		right = &node{leaf: true, keys: slices.Clone(n.keys[mid:]), vals: slices.Clone(n.vals[mid:])}
		return left, right.keys[0], right
	}
	left = &node{keys: slices.Clone(n.keys[:mid]), kids: slices.Clone(n.kids[:mid+1])}
	right = &node{keys: slices.Clone(n.keys[mid+1:]), kids: slices.Clone(n.kids[mid+1:])}
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

// inserted returns an exactly sized copy of s with v at index i.
func inserted[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}
