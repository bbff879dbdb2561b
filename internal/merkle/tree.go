// Package merkle implements the authenticated dictionary of Section 4.1
// of the Trusted CVS paper: a B+-tree in which every node carries a
// digest — leaf digests bind the records stored in the leaf, internal
// digests bind the separator keys and the children's digests — so the
// digest of the root ("root hash", M(D) in the paper) commits to the
// entire database contents.
//
// The tree is persistent (copy on write): mutating operations return a
// new *Tree and leave the receiver untouched (PutOwned, for a verifier's
// private tree, is the one exception). Persistence is what makes
// verification objects cheap to build (the pre-state stays alive while
// the operation runs, so the recorder can prune it afterwards) and
// gives the adversary package O(1) forks of the database, which the
// partition attack of Figure 1 needs.
//
// Verification objects (see vo.go) are pruned copies of the pre-state
// tree. A tree may therefore contain pruned nodes — placeholders that
// carry only a digest. Any operation that would need to look inside a
// pruned node fails with ErrPruned; on a fully materialized tree no
// operation ever returns an error.
package merkle

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"trustedcvs/internal/digest"
)

// DefaultOrder is the branching factor used when 0 is passed to New: a
// node holds at most DefaultOrder keys and DefaultOrder+1 children,
// matching the paper's "up to m keys and m+1 pointers".
const DefaultOrder = 8

// MinOrder is the smallest supported branching factor.
const MinOrder = 3

// ErrPruned is returned when an operation needs the contents of a node
// that a verification object pruned away. During VO verification this
// means the VO does not cover the operation being replayed — i.e. the
// server's proof is invalid.
var ErrPruned = errors.New("merkle: operation reached a pruned node")

// Tree is an immutable authenticated B+-tree mapping string keys to
// byte-slice values. The zero value is not usable; call New.
type Tree struct {
	order int
	root  *node
	size  int
}

type node struct {
	pruned bool
	leaf   bool
	memo   atomic.Uint32 // memoUnset, memoWriting or memoValid: who may touch dig
	dig    digest.Digest // the memoized digest; read only after memo reads memoValid
	keys   []string
	vals   [][]byte // leaf nodes: vals[i] is the value for keys[i]
	kids   []*node  // internal nodes: len(kids) == len(keys)+1
}

const (
	memoUnset uint32 = iota
	memoWriting
	memoValid
)

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
	if order < MinOrder {
		panic(fmt.Sprintf("merkle: order %d below minimum %d", order, MinOrder))
	}
	return &Tree{order: order}
}

// Order returns the tree's branching factor.
func (t *Tree) Order() int { return t.order }

// Len returns the number of records in the tree. Len is unreliable on
// trees rebuilt from verification objects (pruned subtrees hide their
// record counts); it reports -1 there.
func (t *Tree) Len() int { return t.size }

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
// are idempotent, so all of them return the same digest.
func (n *node) digest() digest.Digest {
	if n == nil {
		return digest.Empty()
	}
	if n.memo.Load() == memoValid {
		return n.dig
	}
	hashCount.Add(1)
	var h *digest.Hasher
	if n.leaf {
		h = digest.NewHasher(digest.DomainLeaf)
		h.Uint64(uint64(len(n.keys)))
		for i, k := range n.keys {
			h.String(k)
			h.Bytes(n.vals[i])
		}
	} else {
		h = digest.NewHasher(digest.DomainInternal)
		h.Uint64(uint64(len(n.keys)))
		for _, k := range n.keys {
			h.String(k)
		}
		for _, c := range n.kids {
			h.Digest(c.digest())
		}
	}
	d := h.Sum()
	if n.memo.CompareAndSwap(memoUnset, memoWriting) {
		n.dig = d
		n.memo.Store(memoValid)
	}
	return d
}

// ctx carries per-operation state: the branching factor and, when a
// verification object is being built, the recorder collecting every
// pre-state node the operation touches.
type ctx struct {
	order int
	rec   map[*node]struct{}
}

func (c *ctx) visit(n *node) {
	if c.rec != nil && n != nil {
		c.rec[n] = struct{}{}
	}
}

// childIndex returns the index of the child responsible for key:
// the first separator greater than key.
func childIndex(n *node, key string) int {
	return sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
}

// Get returns the value stored for key.
func (t *Tree) Get(key string) ([]byte, bool) {
	v, ok, err := t.GetErr(key)
	if err != nil {
		// Only possible on trees containing pruned nodes.
		panic("merkle: Get on partial tree; use GetErr: " + err.Error())
	}
	return v, ok
}

// GetErr is Get for trees that may contain pruned nodes (trees rebuilt
// from verification objects).
func (t *Tree) GetErr(key string) ([]byte, bool, error) {
	c := &ctx{order: t.order}
	return c.get(t.root, key)
}

func (c *ctx) get(n *node, key string) ([]byte, bool, error) {
	if n == nil {
		return nil, false, nil
	}
	c.visit(n)
	if n.pruned {
		return nil, false, fmt.Errorf("%w (get %q)", ErrPruned, key)
	}
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			return n.vals[i], true, nil
		}
		return nil, false, nil
	}
	return c.get(n.kids[childIndex(n, key)], key)
}

// Range calls fn for every record with lo <= key < hi, in key order,
// until fn returns false. An empty hi means "no upper bound". Range
// returns ErrPruned if the scan would need a pruned subtree.
func (t *Tree) Range(lo, hi string, fn func(key string, val []byte) bool) error {
	c := &ctx{order: t.order}
	_, err := c.rng(t.root, lo, hi, fn)
	return err
}

func (c *ctx) rng(n *node, lo, hi string, fn func(string, []byte) bool) (bool, error) {
	if n == nil {
		return true, nil
	}
	c.visit(n)
	if n.pruned {
		return false, fmt.Errorf("%w (range [%q,%q))", ErrPruned, lo, hi)
	}
	if n.leaf {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if hi != "" && k >= hi {
				return false, nil
			}
			if !fn(k, n.vals[i]) {
				return false, nil
			}
		}
		return true, nil
	}
	start := childIndex(n, lo)
	// Descend from the child that may contain lo; separators tell us
	// when the upper bound cuts off the scan.
	for i := start; i < len(n.kids); i++ {
		if i > start && hi != "" && n.keys[i-1] >= hi {
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
	_ = t.Range("", "", func(k string, _ []byte) bool {
		ks = append(ks, k)
		return true
	})
	return ks
}

// clone returns a mutable shallow copy of n with an invalidated digest.
func (n *node) clone() *node {
	nn := &node{leaf: n.leaf}
	nn.keys = append([]string(nil), n.keys...)
	if n.leaf {
		nn.vals = append([][]byte(nil), n.vals...)
	} else {
		nn.kids = append([]*node(nil), n.kids...)
	}
	return nn
}
