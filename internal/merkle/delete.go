package merkle

import (
	"fmt"
	"slices"
)

func (t *Tree) deleteCtx(c *ctx, key string) (*Tree, bool, error) {
	if t.root == (kid{}) {
		return t, false, nil
	}
	nr, found, err := c.del(t.root, key)
	if err != nil {
		return nil, false, err
	}
	if !found {
		return t, false, nil
	}
	// Collapse a root that lost all its keys.
	root := kid{n: nr}
	if !nr.leaf && nr.count() == 0 {
		root = nr.kids[0]
	}
	if root.n != nil && root.n.leaf && root.n.count() == 0 {
		root = kid{}
	}
	return t.next(root, t.resized(-1)), true, nil
}

// del removes key from the subtree rooted at n. The returned node may
// underflow (fewer than minKeys keys); the caller rebalances. As in
// put, it is n edited in place when the transaction owns n.
func (c *ctx) del(k kid, key string) (nn *node, found bool, err error) {
	n := k.n
	if n == nil {
		return nil, false, fmt.Errorf("%w (delete %q)", ErrPruned, key)
	}
	c.visit(n)
	if n.leaf {
		s, found := find(n.enc, key)
		if !found {
			return n, false, nil
		}
		return c.with(n, s.remove(c, n.enc), nil), true, nil
	}
	idx := n.childIndex(key)
	nk, found, err := c.del(n.kids[idx], key)
	if err != nil {
		return nil, false, err
	}
	if !found {
		return n, false, nil
	}
	nn = c.edit(n)
	nn.kids[idx] = kid{n: nk}
	if nk.count() < int(c.order)/2 {
		if err := c.rebalance(nn, idx); err != nil {
			return nil, false, err
		}
	}
	return nn, true, nil
}

// rebalance restores the minimum-occupancy invariant for nn.kids[idx].
// The policy is fixed and deterministic — borrow from the left sibling,
// else borrow from the right, else merge with the left, else merge with
// the right — so that a verifier replaying the operation on a pruned
// tree touches exactly the nodes the server's recorder saw. nn and the
// child — del has just made or edited both, and nobody else can reach
// them — take new encodings in place; a sibling that gives up an entry
// is edited like any other node.
func (c *ctx) rebalance(nn *node, idx int) error {
	child := nn.kids[idx].n
	min := int(c.order) / 2

	var left, right *node
	if idx > 0 {
		if left = nn.kids[idx-1].n; left == nil {
			return fmt.Errorf("%w (rebalance: left sibling)", ErrPruned)
		}
		c.visit(left)
	}
	if idx < len(nn.kids)-1 {
		if right = nn.kids[idx+1].n; right == nil {
			return fmt.Errorf("%w (rebalance: right sibling)", ErrPruned)
		}
		c.visit(right)
	}

	var pb, cb, sb [stackEntries]entry
	pe, ce := nn.entries(pb[:0]), child.entries(cb[:0])
	switch {
	case left != nil && left.count() > min:
		c.borrowLeft(nn, pe, idx, left.entries(sb[:0]), left, child, ce)
	case right != nil && right.count() > min:
		c.borrowRight(nn, pe, idx, child, ce, right, right.entries(sb[:0]))
	case left != nil:
		c.merge(nn, pe, idx-1, left, append(left.entries(sb[:0]), ce...))
	case right != nil:
		c.merge(nn, pe, idx, child, append(ce, right.entries(sb[:0])...))
	default:
		// A non-root internal node always has at least one sibling.
		panic("merkle: rebalance with no siblings")
	}
	return nil
}

// borrowLeft moves the left sibling's last entry into child; pe, le and
// ce are the entries of parent, left and child.
func (c *ctx) borrowLeft(parent *node, pe []entry, idx int, le []entry, left, child *node, ce []entry) {
	last := len(le) - 1
	nl := c.edit(left)
	if child.leaf {
		child.enc = encode(true, slices.Insert(ce, 0, le[last]))
		pe[idx-1].key = le[last].key
	} else {
		// Rotate through the parent separator.
		child.enc = encode(false, slices.Insert(ce, 0, pe[idx-1]))
		child.kids = inserted(child.kids, 0, nl.kids[last+1])
		pe[idx-1] = le[last]
		nl.kids = nl.kids[:last+1]
	}
	nl.enc = encode(left.leaf, le[:last])
	parent.enc = encode(false, pe)
	parent.kids[idx-1] = kid{n: nl}
}

// borrowRight moves the right sibling's first entry into child.
func (c *ctx) borrowRight(parent *node, pe []entry, idx int, child *node, ce []entry, right *node, re []entry) {
	nr := c.edit(right)
	if child.leaf {
		child.enc = encode(true, append(ce, re[0]))
		pe[idx].key = re[1].key
	} else {
		child.enc = encode(false, append(ce, pe[idx]))
		child.kids = inserted(child.kids, len(child.kids), nr.kids[0])
		pe[idx] = re[0]
		nr.kids = nr.kids[1:]
	}
	nr.enc = encode(right.leaf, re[1:])
	parent.enc = encode(false, pe)
	parent.kids[idx+1] = kid{n: nr}
}

// merge replaces parent.kids[sepIdx] and parent.kids[sepIdx+1] with one
// node of the entries joined (a, the first of them, tells its kind),
// removing the separator pe[sepIdx] — which an internal merge pulls
// down between the two halves.
func (c *ctx) merge(parent *node, pe []entry, sepIdx int, a *node, joined []entry) {
	b := parent.kids[sepIdx+1].n
	var m *node
	if a.leaf {
		m = c.node(true, encode(true, joined), nil)
	} else {
		joined = slices.Insert(joined, a.count(), pe[sepIdx])
		m = c.node(false, encode(false, joined), slices.Concat(a.kids, b.kids))
	}
	parent.enc = encode(false, slices.Delete(pe, sepIdx, sepIdx+1))
	parent.kids = append(parent.kids[:sepIdx], parent.kids[sepIdx+1:]...)
	parent.kids[sepIdx] = kid{n: m}
}
