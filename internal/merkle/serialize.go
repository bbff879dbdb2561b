package merkle

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
)

// Snapshot is the wire/disk form of a complete tree. Unlike a plain
// key-value dump, it preserves the exact node structure: B+-tree shape
// depends on insertion history, so only a structural snapshot restores
// the same root digest — which is what keeps restarted servers
// consistent with their clients' verified roots.
type Snapshot struct {
	Order int
	Size  int
	Root  *SnapshotNode
}

// SnapshotNode is one fully expanded node.
type SnapshotNode struct {
	Leaf bool
	Keys []string
	Vals [][]byte
	Kids []*SnapshotNode
}

// Snapshot captures the tree. The result shares no mutable state with
// the tree (values are copied).
func (t *Tree) Snapshot() *Snapshot {
	return &Snapshot{Order: t.order, Size: t.size, Root: snapNode(t.root)}
}

func snapNode(n *node) *SnapshotNode {
	if n == nil {
		return nil
	}
	if n.pruned {
		// Partial trees are verification artifacts that exist only on
		// the client side; the server's persistent tree is always
		// complete, so no remote input can steer a checkpoint here.
		//lint:ignore panicfree server trees are never partial; pruned nodes only come from VO materialization on verifiers
		panic("merkle: cannot snapshot a partial tree")
	}
	sn := &SnapshotNode{Leaf: n.leaf, Keys: append([]string(nil), n.keys...)}
	if n.leaf {
		sn.Vals = make([][]byte, len(n.vals))
		for i, v := range n.vals {
			sn.Vals[i] = append([]byte(nil), v...)
		}
		return sn
	}
	sn.Kids = make([]*SnapshotNode, len(n.kids))
	for i, k := range n.kids {
		sn.Kids[i] = snapNode(k)
	}
	return sn
}

// Restore rebuilds a tree from a snapshot and validates it the way a
// fully materialized tree is validated anywhere (snapshots may come
// from disk or the network): every shape CheckInvariants refuses is
// refused here. The restored tree's root digest equals the original's.
func Restore(s *Snapshot) (*Tree, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrMalformedVO)
	}
	if s.Order < MinOrder {
		return nil, fmt.Errorf("%w: order %d", ErrMalformedVO, s.Order)
	}
	t := &Tree{order: s.Order, root: restoreNode(s.Root), size: s.Size}
	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("%w: restored tree invalid: %v", ErrMalformedVO, err)
	}
	return t, nil
}

// restoreNode copies sn: the snapshot may be an in-memory object the
// caller still holds.
func restoreNode(sn *SnapshotNode) *node {
	if sn == nil {
		return nil
	}
	n := &node{leaf: sn.Leaf, keys: slices.Clone(sn.Keys)}
	if sn.Leaf {
		n.vals = make([][]byte, len(sn.Vals))
		for i, v := range sn.Vals {
			n.vals[i] = slices.Clone(v)
		}
		return n
	}
	n.kids = make([]*node, len(sn.Kids))
	for i, kid := range sn.Kids {
		n.kids[i] = restoreNode(kid)
	}
	return n
}

// WriteTo serializes the snapshot with gob.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(s); err != nil {
		return cw.n, fmt.Errorf("merkle: encode snapshot: %w", err)
	}
	return cw.n, nil
}

// ReadSnapshot deserializes a snapshot written by WriteTo.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("merkle: decode snapshot: %w", err)
	}
	return &s, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
