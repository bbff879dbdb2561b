// Merkle forest: the database sharded into N independent Merkle
// B⁺-trees, each with its own counter and mutex, folded into a single
// root-of-roots.
//
// The paper's detection argument needs a totally ordered,
// authenticated history per verification domain — not one global lock.
// Sharding the item space makes each shard its own domain: single-shard
// operations take only their shard's ordered section, so operations on
// different shards never contend. The forest publishes one (gctr,
// root-of-roots) head under a tiny forest mutex, which is what the
// commitment, witness, and checkpoint machinery consume; none of them
// know N. A one-shard forest folds to the shard root itself, keeping
// N=1 bit-compatible with the pre-forest database.
//
// Cross-shard transactions (CrossOp) lock their shards in ascending
// order, apply all legs or none, and publish every leg under one fmu
// entry — a two-phase prepare/commit whose per-shard sub-VOs the
// protocol layer binds together with a transaction digest (see
// internal/core.CrossTxDigest).
package vdb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
)

// MaxShards bounds the forest width: shard indexes travel on the wire
// as small integers and every response carries the head vector, so an
// absurd width is a protocol error, not a tuning choice.
const MaxShards = 256

// shard is one tree of the forest. Its mutex serializes the shard's
// ordered section (apply + counter bump + head publication); the
// atomic counters below instrument exactly how narrow that section is
// and how often anyone waits for it — the evidence E16 reports.
type shard struct {
	mu   sync.Mutex
	tree *merkle.Tree
	ctr  uint64

	lockedAt time.Time // guarded by mu: acquisition instant, for held-time accounting

	ops       atomic.Uint64
	contended atomic.Uint64
	waitNs    atomic.Uint64
	heldNs    atomic.Uint64
}

// lock acquires the shard's ordered section, counting contended
// acquisitions and time spent waiting. The fast path is a TryLock: an
// uncontended acquisition costs one CAS and no clock read beyond the
// held-time stamp.
func (s *shard) lock() {
	if !s.mu.TryLock() {
		//lint:ignore randsource contention accounting on the lock path, not a verification path
		t0 := time.Now()
		s.mu.Lock()
		s.contended.Add(1)
		s.waitNs.Add(uint64(time.Since(t0)))
	}
	//lint:ignore randsource contention accounting on the lock path, not a verification path
	s.lockedAt = time.Now()
}

// unlock releases the shard's ordered section, accounting the held
// time.
func (s *shard) unlock() {
	s.heldNs.Add(uint64(time.Since(s.lockedAt)))
	s.ops.Add(1)
	s.mu.Unlock()
}

// headEntry is one published (tree, ctr) head. Published means: the
// forest mutex has seen it — readers that only take fmu observe a
// consistent cut of the whole forest.
type headEntry struct {
	tree *merkle.Tree
	ctr  uint64
}

// ShardHead is the wire/persistence form of one shard's head.
type ShardHead struct {
	Root digest.Digest
	Ctr  uint64
}

// shardHeadsOf converts published head entries to ShardHeads,
// computing (memoized) root digests outside any lock. Returns nil for
// nil input.
func shardHeadsOf(heads []headEntry) []ShardHead {
	if heads == nil {
		return nil
	}
	out := make([]ShardHead, len(heads))
	for i, e := range heads {
		out[i] = ShardHead{Root: e.tree.RootDigest(), Ctr: e.ctr}
	}
	return out
}

// FoldHeads computes the root-of-roots of a head vector. A single
// head folds to its own root — that is what keeps one-shard forests
// bit-compatible with the pre-forest database (same root, same
// commitments, same witness chains). Wider forests bind the width and
// every (root, ctr) pair under DomainForest.
func FoldHeads(heads []ShardHead) digest.Digest {
	if len(heads) == 1 {
		return heads[0].Root
	}
	h := digest.NewHasher(digest.DomainForest).Uint64(uint64(len(heads)))
	for _, e := range heads {
		h.Digest(e.Root)
		h.Uint64(e.Ctr)
	}
	return h.Sum()
}

// newForest allocates the DB skeleton with n empty shard slots (trees
// unset; callers fill them).
func newForest(n int) *DB {
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{}
	}
	return &DB{shards: shards, heads: make([]headEntry, n)}
}

// NewSharded creates an empty database of n Merkle shards with the
// given branching factor (0 = merkle.DefaultOrder). n must be in
// [1, MaxShards]; NewSharded(order, 1) is New(order).
func NewSharded(order, n int) *DB {
	if n < 1 || n > MaxShards {
		panic(fmt.Sprintf("vdb: shard count %d out of range [1,%d]", n, MaxShards))
	}
	db := newForest(n)
	for i := range db.shards {
		t := merkle.New(order)
		db.shards[i].tree = t
		db.heads[i] = headEntry{tree: t}
	}
	return db
}

// Shards returns the forest width N.
func (db *DB) Shards() int { return len(db.shards) }

// Heads returns the published per-shard head vector.
func (db *DB) Heads() []ShardHead {
	db.fmu.Lock()
	heads := append([]headEntry(nil), db.heads...)
	db.fmu.Unlock()
	return shardHeadsOf(heads)
}

// ShardRoots returns the current root digest of every shard — the
// per-shard M(D₀)s a forest-mode Protocol II user is initialized with.
func (db *DB) ShardRoots() []digest.Digest {
	heads := db.Heads()
	roots := make([]digest.Digest, len(heads))
	for i, h := range heads {
		roots[i] = h.Root
	}
	return roots
}

// ShardStats is the contention evidence for one shard's ordered
// section.
type ShardStats struct {
	Shard     int
	Ops       uint64 // ordered-section entries (including preloads and forks' source ops)
	Contended uint64 // entries that found the mutex held
	WaitNs    uint64 // total time spent waiting for the mutex
	HeldNs    uint64 // total time the mutex was held
}

// Stats returns a snapshot of every shard's contention counters.
// Counters are cumulative; benchmarks subtract a before-snapshot.
func (db *DB) Stats() []ShardStats {
	out := make([]ShardStats, len(db.shards))
	for i, s := range db.shards {
		out[i] = ShardStats{
			Shard:     i,
			Ops:       s.ops.Load(),
			Contended: s.contended.Load(),
			WaitNs:    s.waitNs.Load(),
			HeldNs:    s.heldNs.Load(),
		}
	}
	return out
}

// ShardKeyer routes an operation to a shard by a single key. The
// key-value ops in this package route structurally (see RouteOp);
// higher-level ops (internal/cvs) implement ShardKeyer — typically
// with a constant key, colocating one application's whole item space
// on one shard so its multi-key transactions stay single-shard.
type ShardKeyer interface {
	ShardKey() string
}

// RouteKey maps a key to a shard index by FNV-1a hash. Deterministic
// and implementation-wide: server and client must agree on routing, or
// a lying server could serve an op from the wrong verification domain.
func RouteKey(key string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// RouteOp maps an operation to its shard in an n-shard forest. Every
// key the operation touches must land on one shard; multi-key
// operations that straddle shards are rejected with a hint to split
// them into a CrossOp. Range scans and cross ops are not routable.
// RouteOp is pure: the client runs the same function to check the
// shard the server claims.
func RouteOp(op Op, n int) (int, error) {
	if n <= 1 {
		return 0, nil
	}
	switch o := op.(type) {
	case *CrossOp:
		return 0, fmt.Errorf("%w: a cross-shard transaction routes per leg (use BeginCross)", ErrBadOp)
	case *ReadOp:
		return routeKeys(n, o.Keys, nil)
	case *WriteOp:
		keys := make([]string, 0, len(o.Puts))
		for _, kv := range o.Puts {
			keys = append(keys, kv.Key)
		}
		return routeKeys(n, keys, o.Deletes)
	case *CASOp:
		return RouteKey(o.Key, n), nil
	case *NopOp:
		return 0, nil
	case *RangeOp:
		return 0, fmt.Errorf("%w: range scans span shards and are not routable on a sharded database", ErrBadOp)
	}
	if sk, ok := op.(ShardKeyer); ok {
		return RouteKey(sk.ShardKey(), n), nil
	}
	return 0, fmt.Errorf("%w: %T is not routable on a sharded database", ErrBadOp, op)
}

// routeKeys routes a multi-key operation: all keys must agree.
func routeKeys(n int, keys, more []string) (int, error) {
	sid := -1
	for _, group := range [][]string{keys, more} {
		for _, k := range group {
			s := RouteKey(k, n)
			if sid == -1 {
				sid = s
				continue
			}
			if s != sid {
				return 0, fmt.Errorf("%w: keys straddle shards %d and %d; split the operation into a CrossOp with one leg per shard", ErrBadOp, sid, s)
			}
		}
	}
	if sid == -1 {
		sid = 0 // empty op: Apply rejects it; route is irrelevant
	}
	return sid, nil
}

// ShardFor routes op within this database.
func (db *DB) ShardFor(op Op) (int, error) {
	return RouteOp(op, len(db.shards))
}

// splitPreload distributes a preload op over the shards: a WriteOp is
// split per shard (the only op preloads use for bulk seeding); any
// other op must route cleanly to one shard. Returns one op per shard
// slot (nil = nothing for that shard).
func (db *DB) splitPreload(op Op) ([]Op, error) {
	n := len(db.shards)
	parts := make([]Op, n)
	if n == 1 {
		parts[0] = op
		return parts, nil
	}
	if w, ok := op.(*WriteOp); ok {
		sub := make([]*WriteOp, n)
		at := func(sid int) *WriteOp {
			if sub[sid] == nil {
				sub[sid] = &WriteOp{}
			}
			return sub[sid]
		}
		for _, kv := range w.Puts {
			s := at(RouteKey(kv.Key, n))
			s.Puts = append(s.Puts, kv)
		}
		for _, k := range w.Deletes {
			s := at(RouteKey(k, n))
			s.Deletes = append(s.Deletes, k)
		}
		for sid, s := range sub {
			if s != nil {
				parts[sid] = s
			}
		}
		return parts, nil
	}
	sid, err := db.ShardFor(op)
	if err != nil {
		return nil, err
	}
	parts[sid] = op
	return parts, nil
}

// CrossOp is a cross-shard transaction: an ordered list of legs, each
// a routable single-shard operation on a distinct shard. On a sharded
// database it goes through BeginCross (all legs or none, one gctr
// window); on a single-shard database it is an ordinary Op whose legs
// apply sequentially — the N=1 compatibility path.
type CrossOp struct {
	Legs []Op
}

// CrossAnswer is the answer type of CrossOp: one answer per leg, in
// leg order.
type CrossAnswer struct {
	Answers []any
}

// Apply implements Op for the single-shard case (and the client-side
// whole-op replay at N=1). Legs apply in order; any failure aborts the
// whole transaction.
func (o *CrossOp) Apply(tx *Tx) (any, error) {
	if len(o.Legs) < 2 {
		return nil, fmt.Errorf("%w: cross op needs at least 2 legs", ErrBadOp)
	}
	ans := CrossAnswer{Answers: make([]any, len(o.Legs))}
	for i, leg := range o.Legs {
		if leg == nil {
			return nil, fmt.Errorf("%w: nil cross leg %d", ErrBadOp, i)
		}
		if _, nested := leg.(*CrossOp); nested {
			return nil, fmt.Errorf("%w: nested cross op (leg %d)", ErrBadOp, i)
		}
		a, err := leg.Apply(tx)
		if err != nil {
			return nil, fmt.Errorf("cross leg %d: %w", i, err)
		}
		ans.Answers[i] = a
	}
	return ans, nil
}

func (o *CrossOp) String() string { return fmt.Sprintf("cross(%d legs)", len(o.Legs)) }

// CrossStaged is the committed cross-shard transaction: every leg's
// ordered section already ran; per-leg Finish (VO pruning, answer
// encoding) happens outside all locks, like Staged.Finish.
type CrossStaged struct {
	preGctr  uint64
	postGctr uint64
	legs     []*Staged
	heads    []headEntry
}

// PreGctr returns the global counter before the transaction's window.
func (cst *CrossStaged) PreGctr() uint64 { return cst.preGctr }

// PostGctr returns the global counter after the transaction's window
// (PreGctr + number of legs).
func (cst *CrossStaged) PostGctr() uint64 { return cst.postGctr }

// Legs returns the per-leg staged results, in leg order.
func (cst *CrossStaged) Legs() []*Staged { return cst.legs }

// Heads returns the published head vector as of the transaction's
// publication.
func (cst *CrossStaged) Heads() []ShardHead { return shardHeadsOf(cst.heads) }

// lockOrdered acquires the given shards' ordered sections in the
// caller-supplied (ascending) order — the forest's deadlock-freedom
// rule for multi-shard sections.
func (db *DB) lockOrdered(sids []int) {
	for _, sid := range sids {
		db.shards[sid].lock()
	}
}

// unlockOrdered releases what lockOrdered acquired, in reverse.
func (db *DB) unlockOrdered(sids []int) {
	for i := len(sids) - 1; i >= 0; i-- {
		db.shards[sids[i]].unlock()
	}
}

// BeginCross runs the two-phase ordered section of a cross-shard
// transaction: route every leg, lock the leg shards in ascending
// order, apply all legs (prepare — nothing published yet), then swap
// every leg's tree and counter and publish all heads under one fmu
// entry (commit). A failing leg aborts with no shard changed. The
// database is consistent at every published point: either no leg of
// the transaction is visible or all are, which is the server-side half
// of the torn-transaction detection argument — the protocol layer
// binds the legs' sub-VOs with a transaction digest so a *lying*
// server that drops a leg is caught by the client (see
// proto2.HandleResponseForest).
func (db *DB) BeginCross(op *CrossOp) (*CrossStaged, error) {
	return db.BeginCrossIn(op, nil)
}

// BeginCrossIn is BeginCross with a section hook: section (if non-nil)
// runs with every leg shard's ordered section still held, after the
// commit is published, so a caller can swap per-shard bookkeeping for
// all legs at the transaction's linearization point (see
// vdb.BeginShardIn for why a hook beats a second mutex). It does not
// run if the transaction aborts.
func (db *DB) BeginCrossIn(op *CrossOp, section func(cst *CrossStaged)) (*CrossStaged, error) {
	n := len(db.shards)
	if n == 1 {
		return nil, fmt.Errorf("%w: BeginCross on a single-shard database (use Begin)", ErrBadOp)
	}
	if len(op.Legs) < 2 {
		return nil, fmt.Errorf("%w: cross op needs at least 2 legs", ErrBadOp)
	}
	sids := make([]int, len(op.Legs))
	seen := make(map[int]bool, len(op.Legs))
	for i, leg := range op.Legs {
		if leg == nil {
			return nil, fmt.Errorf("%w: nil cross leg %d", ErrBadOp, i)
		}
		sid, err := RouteOp(leg, n)
		if err != nil {
			return nil, fmt.Errorf("cross leg %d: %w", i, err)
		}
		if seen[sid] {
			return nil, fmt.Errorf("%w: cross legs collide on shard %d (colocated legs belong in one leg)", ErrBadOp, sid)
		}
		seen[sid] = true
		sids[i] = sid
	}
	order := append([]int(nil), sids...)
	sort.Ints(order)
	db.lockOrdered(order)
	// Prepare: apply every leg to its shard's recording. No shard state
	// changes yet, so an abort here leaves the forest untouched.
	legs := make([]*Staged, len(op.Legs))
	for i, legOp := range op.Legs {
		s := db.shards[sids[i]]
		rec := s.tree.Record()
		ans, err := legOp.Apply((*Tx)(rec))
		if err != nil {
			db.unlockOrdered(order)
			return nil, fmt.Errorf("cross leg %d: %w", i, err)
		}
		legs[i] = &Staged{shard: sids[i], preCtr: s.ctr, rec: rec, ans: ans}
	}
	// Commit: swap every leg's tree and counter, then publish the whole
	// transaction as one gctr window.
	for i := range legs {
		s := db.shards[sids[i]]
		s.tree = legs[i].rec.Tree()
		s.ctr++
	}
	cst := &CrossStaged{legs: legs}
	db.fmu.Lock()
	cst.preGctr = db.gctr
	db.gctr += uint64(len(legs))
	for i := range legs {
		s := db.shards[sids[i]]
		db.heads[sids[i]] = headEntry{tree: s.tree, ctr: s.ctr}
	}
	cst.postGctr = db.gctr
	cst.heads = append([]headEntry(nil), db.heads...)
	db.fmu.Unlock()
	if section != nil {
		section(cst)
	}
	db.unlockOrdered(order)
	for _, leg := range legs {
		leg.postGctr = cst.postGctr
		leg.heads = cst.heads
	}
	return cst, nil
}

// LockAll runs section with every shard's ordered section held, taken
// in ascending order — the forest-wide barrier that snapshot-style
// callers (fork, checkpoint) use to pair a database cut with their own
// per-shard bookkeeping. Calling back into the database from section
// deadlocks, with one exception: Fork and the other fmu-only readers
// are safe (shard locks before fmu is the forest's lock order).
func (db *DB) LockAll(section func()) {
	order := make([]int, len(db.shards))
	for i := range order {
		order[i] = i
	}
	db.lockOrdered(order)
	section()
	db.unlockOrdered(order)
}
