package merkle

import (
	"bytes"
	"fmt"
)

// CheckInvariants verifies the structural invariants of a fully
// materialized tree. It is exported for the package's property-based
// tests and for debugging; it is never needed in production paths.
//
// Checked: uniform leaf depth; per-node key-count bounds; sorted,
// duplicate-free keys globally; separator consistency (every key in
// child i lies in [keys[i-1], keys[i])); one more child than keys;
// size bookkeeping.
func (t *Tree) CheckInvariants() error {
	if t.root == (kid{}) {
		if t.size != 0 {
			return fmt.Errorf("merkle: empty tree with size %d", t.size)
		}
		return nil
	}
	depth := -1
	count := 0
	var prev []byte
	first := true
	// hi == nil is "no upper bound".
	var walk func(k kid, d int, lo, hi []byte, isRoot bool) error
	walk = func(k kid, d int, lo, hi []byte, isRoot bool) error {
		n := k.n
		if k.d != nil {
			return fmt.Errorf("merkle: pruned node in materialized tree at depth %d", d)
		}
		if n == nil {
			return fmt.Errorf("merkle: nil node at depth %d", d)
		}
		es := n.entries(nil)
		for i := 1; i < len(es); i++ {
			if bytes.Compare(es[i-1].key, es[i].key) >= 0 {
				return fmt.Errorf("merkle: unsorted keys at depth %d: %q before %q", d, es[i-1].key, es[i].key)
			}
		}
		if !isRoot && len(es) < t.minKeys() {
			return fmt.Errorf("merkle: underfull node at depth %d: %d keys < min %d", d, len(es), t.minKeys())
		}
		if len(es) > t.order {
			return fmt.Errorf("merkle: overfull node at depth %d: %d keys > order %d", d, len(es), t.order)
		}
		if n.leaf {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("merkle: leaves at depths %d and %d", depth, d)
			}
			for _, e := range es {
				k := e.key
				if bytes.Compare(k, lo) < 0 || (hi != nil && bytes.Compare(k, hi) >= 0) {
					return fmt.Errorf("merkle: key %q outside separator range [%q,%q)", k, lo, hi)
				}
				if !first && bytes.Compare(k, prev) <= 0 {
					return fmt.Errorf("merkle: key order violation: %q after %q", k, prev)
				}
				prev, first = k, false
				count++
			}
			return nil
		}
		if len(n.kids) != len(es)+1 {
			return fmt.Errorf("merkle: internal node with %d keys, %d kids", len(es), len(n.kids))
		}
		for i, k := range n.kids {
			clo, chi := lo, hi
			if i > 0 {
				clo = es[i-1].key
			}
			if i < len(es) {
				chi = es[i].key
			}
			if err := walk(k, d+1, clo, chi, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, nil, nil, true); err != nil {
		return err
	}
	if t.size >= 0 && count != t.size {
		return fmt.Errorf("merkle: size bookkeeping: counted %d, size field %d", count, t.size)
	}
	return nil
}

// Height returns the number of levels in the tree (0 for empty). A tree
// rebuilt from a verification object descends through the first child
// of each node that the VO expanded, and reports -1, as Len does, when
// pruned subtrees hide the leaf level.
func (t *Tree) Height() int {
	k := t.root
	for h := 0; ; h++ {
		n := k.n
		if n == nil {
			if k.d != nil {
				return -1
			}
			return h
		}
		if n.leaf {
			return h + 1
		}
		k = n.kids[0]
		for _, c := range n.kids {
			if c.n != nil {
				k = c
				break
			}
		}
	}
}
