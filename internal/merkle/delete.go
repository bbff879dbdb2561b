package merkle

import (
	"fmt"
	"slices"
)

// Delete returns a new tree without key, and whether the key was
// present. The receiver is unchanged.
func (t *Tree) Delete(key string) (*Tree, bool) {
	nt, found, err := t.DeleteErr(key)
	if err != nil {
		panic("merkle: Delete on partial tree; use DeleteErr: " + err.Error())
	}
	return nt, found
}

// DeleteErr is Delete for trees that may contain pruned nodes.
func (t *Tree) DeleteErr(key string) (*Tree, bool, error) {
	c := t.ctx()
	return t.deleteCtx(&c, key)
}

func (t *Tree) deleteCtx(c *ctx, key string) (*Tree, bool, error) {
	if t.root == nil {
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
	if !nr.leaf && len(nr.keys) == 0 {
		nr = nr.kids[0]
	}
	if nr.leaf && len(nr.keys) == 0 {
		nr = nil
	}
	return t.next(nr, t.resized(-1)), true, nil
}

// del removes key from the subtree rooted at n. The returned node may
// underflow (fewer than minKeys keys); the caller rebalances. As in
// put, it is n edited in place when the transaction owns n.
func (c *ctx) del(n *node, key string) (nn *node, found bool, err error) {
	c.visit(n)
	if n.pruned {
		return nil, false, fmt.Errorf("%w (delete %q)", ErrPruned, key)
	}
	if n.leaf {
		i := searchKeys(n.keys, key)
		if i >= len(n.keys) || n.keys[i] != key {
			return n, false, nil
		}
		return c.with(n, removed(n.keys, i), removed(n.vals, i), nil), true, nil
	}
	idx := childIndex(n, key)
	nk, found, err := c.del(n.kids[idx], key)
	if err != nil {
		return nil, false, err
	}
	if !found {
		return n, false, nil
	}
	nn = c.edit(n)
	nn.kids[idx] = nk
	if len(nk.keys) < int(c.order)/2 {
		// rebalance rewrites separators, and edit shares the keys array.
		nn.keys = slices.Clone(nn.keys)
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
// tree touches exactly the nodes the server's recorder saw.
func (c *ctx) rebalance(nn *node, idx int) error {
	child := nn.kids[idx]
	min := int(c.order) / 2

	var left, right *node
	if idx > 0 {
		left = nn.kids[idx-1]
		c.visit(left)
		if left.pruned {
			return fmt.Errorf("%w (rebalance: left sibling)", ErrPruned)
		}
	}
	if idx < len(nn.kids)-1 {
		right = nn.kids[idx+1]
		c.visit(right)
		if right.pruned {
			return fmt.Errorf("%w (rebalance: right sibling)", ErrPruned)
		}
	}

	switch {
	case left != nil && len(left.keys) > min:
		c.borrowLeft(nn, idx, left, child)
	case right != nil && len(right.keys) > min:
		c.borrowRight(nn, idx, child, right)
	case left != nil:
		c.merge(nn, idx-1, left, child)
	case right != nil:
		c.merge(nn, idx, child, right)
	default:
		// A non-root internal node always has at least one sibling.
		panic("merkle: rebalance with no siblings")
	}
	return nil
}

// borrowLeft moves the left sibling's last entry into child, which —
// like parent — del has just made or edited and nobody else can reach.
func (c *ctx) borrowLeft(parent *node, idx int, left, child *node) {
	nl := c.edit(left)
	last := len(nl.keys) - 1
	if child.leaf {
		child.keys = inserted(child.keys, 0, nl.keys[last])
		child.vals = inserted(child.vals, 0, nl.vals[last])
		nl.keys = nl.keys[:last]
		nl.vals = nl.vals[:last]
		parent.keys[idx-1] = child.keys[0]
	} else {
		// Rotate through the parent separator.
		child.keys = inserted(child.keys, 0, parent.keys[idx-1])
		child.kids = inserted(child.kids, 0, nl.kids[last+1])
		parent.keys[idx-1] = nl.keys[last]
		nl.keys = nl.keys[:last]
		nl.kids = nl.kids[:last+1]
	}
	parent.kids[idx-1] = nl
}

// borrowRight moves the right sibling's first entry into child.
func (c *ctx) borrowRight(parent *node, idx int, child, right *node) {
	nr := c.edit(right)
	if child.leaf {
		child.keys = inserted(child.keys, len(child.keys), nr.keys[0])
		child.vals = inserted(child.vals, len(child.vals), nr.vals[0])
		nr.keys = nr.keys[1:]
		nr.vals = nr.vals[1:]
		parent.keys[idx] = nr.keys[0]
	} else {
		child.keys = inserted(child.keys, len(child.keys), parent.keys[idx])
		child.kids = inserted(child.kids, len(child.kids), nr.kids[0])
		parent.keys[idx] = nr.keys[0]
		nr.keys = nr.keys[1:]
		nr.kids = nr.kids[1:]
	}
	parent.kids[idx+1] = nr
}

// merge combines parent.kids[sepIdx] and parent.kids[sepIdx+1] into one
// node, removing the separator parent.keys[sepIdx].
func (c *ctx) merge(parent *node, sepIdx int, a, b *node) {
	var m *node
	if a.leaf {
		m = c.node(true, slices.Concat(a.keys, b.keys), slices.Concat(a.vals, b.vals), nil)
	} else {
		m = c.node(false, slices.Concat(a.keys, parent.keys[sepIdx:sepIdx+1], b.keys), nil, slices.Concat(a.kids, b.kids))
	}
	parent.keys = append(parent.keys[:sepIdx], parent.keys[sepIdx+1:]...)
	parent.kids = append(parent.kids[:sepIdx], parent.kids[sepIdx+1:]...)
	parent.kids[sepIdx] = m
}
