// Package merkle implements the authenticated dictionary of Section 4.1
// of the Trusted CVS paper: a B+-tree in which every node carries a
// digest — leaf digests bind the records stored in the leaf, internal
// digests bind the separator keys and the children's digests — so the
// digest of the root ("root hash", M(D) in the paper) commits to the
// entire database contents.
//
// The tree is persistent (copy on write): mutating operations return a
// new *Tree and leave the receiver untouched. Persistence is what makes
// verification objects cheap to build (the pre-state stays alive while
// the operation runs, so the recorder can prune it afterwards) and
// gives the adversary package O(1) forks of the database, which the
// partition attack of Figure 1 needs.
//
// Copying is per transaction, not per key. A node created inside a
// transaction (a Recording: Tree.Record, Tree.Begin, VO.Begin) carries
// the memoOwned bit in its memo word and belongs to that transaction,
// which is the only holder of a pointer to it: a further put or delete
// of the same transaction edits it in place, and the recorder skips it
// (it is never pre-state). Ownership ends when the transaction hands
// its tree out: Recording.Tree walks the owned nodes — they hang
// together under the root — and clears the bit, so no tree anyone else
// can reach ever contains an owned node, and whatever is written
// through the Recording afterwards copies again.
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
	"math"
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
	memo   atomic.Uint32 // memoUnset, memoWriting or memoValid (who may touch dig), with or without memoOwned
	dig    digest.Digest // the memoized digest; read only after memo reads memoValid
	keys   []string
	vals   [][]byte // leaf nodes: vals[i] is the value for keys[i]
	kids   []*node  // internal nodes: len(kids) == len(keys)+1
}

const (
	memoUnset uint32 = iota
	memoWriting
	memoValid
	// memoOwned is a flag beside the state: the node belongs to the
	// one unpublished transaction that can reach it.
	memoOwned uint32 = 4
)

// owned reports whether the running transaction may edit n in place.
func (n *node) owned() bool { return n.memo.Load()&memoOwned != 0 }

// forget drops the memoized digest of an owned node that is about to
// change; a node never hashed since its last edit needs no store.
func (n *node) forget() {
	if n.memo.Load() != memoOwned {
		n.memo.Store(memoOwned)
	}
}

// release ends a transaction's ownership of n, which it owns, and of
// the nodes under it. Every owned node hangs under an owned parent (a
// transaction links what it creates only into nodes it created), so the
// walk stops at the first node of the pre-state on every path.
func release(n *node) {
	n.memo.Store(n.memo.Load() &^ memoOwned)
	for _, kid := range n.kids {
		if kid.owned() {
			release(kid)
		}
	}
}

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
	if order < MinOrder || order > math.MaxInt32 {
		panic(fmt.Sprintf("merkle: order %d outside [%d, %d]", order, MinOrder, math.MaxInt32))
	}
	return &Tree{order: order}
}

// Order returns the tree's branching factor.
func (t *Tree) Order() int { return t.order }

// Len returns the number of records in the tree. Trees rebuilt from
// verification objects, and every tree derived from one, report -1:
// pruned subtrees hide their record counts.
func (t *Tree) Len() int { return t.size }

// ctx returns the context of a one-shot operation on t.
func (t *Tree) ctx() ctx { return ctx{order: int32(t.order)} }

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
// are idempotent, so all of them return the same digest. An owned node
// has one reader, its transaction, and keeps its flag through the swap.
func (n *node) digest() digest.Digest {
	if n == nil {
		return digest.Empty()
	}
	m := n.memo.Load()
	if m&^memoOwned == memoValid {
		return n.dig
	}
	own := m & memoOwned
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
	if n.memo.CompareAndSwap(own|memoUnset, own|memoWriting) {
		n.dig = d
		n.memo.Store(own | memoValid)
	}
	return d
}

// ctx carries per-operation state: the branching factor, the memo word
// new nodes start with (memoOwned inside a transaction, memoUnset for
// the one-shot Tree methods) and, when a verification object is being
// built, the recorder collecting every pre-state node the operation
// touches.
type ctx struct {
	order int32
	mark  uint32
	rec   map[*node]struct{}
}

// node returns a new node of the running operation.
func (c *ctx) node(leaf bool, keys []string, vals [][]byte, kids []*node) *node {
	n := &node{leaf: leaf, keys: keys, vals: vals, kids: kids}
	if c.mark != memoUnset {
		n.memo.Store(c.mark)
	}
	return n
}

func (c *ctx) visit(n *node) {
	if c.rec != nil && n != nil && !n.owned() {
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
	c := t.ctx()
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
	c := t.ctx()
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
