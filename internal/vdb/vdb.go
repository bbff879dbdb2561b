// Package vdb implements the paper's "database of data items" (Section
// 2.1): an authenticated key-value database on which every CVS
// operation is modeled as a deterministic transaction.
//
// The central abstraction is Op: a deterministic, wire-encodable state
// transition. The server applies an Op to its Merkle tree while
// recording every node touched, producing (answer, verification
// object, ctr). The client *replays the same Op* on the pruned
// pre-state shipped in the VO — recomputing the old root digest, the
// answer, and the new root digest independently. Anything the server
// lied about (the answer, the pre-state, the post-state) surfaces as a
// typed verification error. This generalizes the paper's v(Q, D) from
// single-key updates to arbitrary deterministic transactions, which is
// what lets the CVS layer make commits atomic.
//
// Since PR 6 the database is a Merkle *forest*: N shards, each with
// its own tree, counter, and mutex, folded into a single root-of-roots
// (see forest.go). A one-shard forest is bit-compatible with the
// original single-tree database — same root, same counter, same wire
// messages, same snapshots — so everything above vdb can stay
// N-oblivious.
package vdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
)

// ErrAnswerMismatch is returned when the server's claimed answer
// differs from the answer obtained by replaying the operation — an
// integrity violation.
var ErrAnswerMismatch = errors.New("vdb: answer does not match verified replay")

// ErrNewRootMismatch is returned when the server's claimed new root
// digest differs from the replayed one.
var ErrNewRootMismatch = errors.New("vdb: new root digest does not match verified replay")

// A Tx gives an Op read/write access to the database state during
// Apply. It is a merkle transaction under another name (the conversion
// costs nothing), whichever side runs it — the server's recording one,
// the trusted path's plain one, the client's replay on the pruned
// pre-state of a VO — guaranteeing all of them run identical code, and
// an Op of many keys copies each tree node once.
type Tx merkle.Recording

func (tx *Tx) rec() *merkle.Recording { return (*merkle.Recording)(tx) }

// Get reads a key.
func (tx *Tx) Get(key string) ([]byte, bool, error) { return tx.rec().Get(key) }

// Put writes a key. The value is copied.
func (tx *Tx) Put(key string, val []byte) error {
	return tx.rec().Put(key, append([]byte(nil), val...))
}

// Delete removes a key, reporting whether it existed.
func (tx *Tx) Delete(key string) (bool, error) { return tx.rec().Delete(key) }

// Range scans keys in [lo, hi) in order ("" hi = unbounded).
func (tx *Tx) Range(lo, hi string, fn func(key string, val []byte) bool) error {
	return tx.rec().Range(lo, hi, fn)
}

// An Op is a deterministic transaction. Apply must depend only on the
// Op's fields and the Tx state: no clocks, no randomness, no maps
// iterated in answer order. The returned answer must be one of the
// WireAnswer types (or a CrossAnswer of them), returned by value.
//
// Implementations live in this package (ReadOp, WriteOp, RangeOp) and
// in internal/cvs (CommitOp, CheckoutOp, LogOp, ...). Concrete op types
// travel inside interface-typed fields and are registered in the wire
// tag table (wire.Register) by their own package.
type Op interface {
	Apply(tx *Tx) (answer any, err error)
}

// DB is the server-side authenticated database: a forest of Merkle
// shards plus the global operation counter ctr from Protocol I ("the
// count of the number of operations performed on the database").
//
// DB is safe for concurrent use. Mutations linearize per shard on that
// shard's mutex, whose critical section is deliberately tiny — apply
// the operation to the persistent tree and bump the counters — so the
// cryptographic heavy lifting (VO pruning, answer encoding) runs
// outside it via Begin/Finish, and operations on different shards
// never contend at all. Readers (Ctr, Root, Head, Fork, Snapshot) see
// a consistent published head vector under fmu and never block on an
// in-flight apply.
//
// Lock order: a shard mutex is always acquired before fmu, never
// after; multiple shard mutexes are acquired in ascending shard order.
type DB struct {
	shards []*shard

	// fmu orders forest-level publication: gctr and the published head
	// vector move together under it. gctr equals the sum of the shard
	// counters at every published point (each shard-counter increment
	// publishes exactly one gctr increment).
	fmu   sync.Mutex
	gctr  uint64
	heads []headEntry
}

// New creates an empty single-shard database with the given Merkle
// branching factor (0 = merkle.DefaultOrder). It is exactly the
// pre-forest database: one tree, one counter, one ordered section.
func New(order int) *DB {
	return NewSharded(order, 1)
}

// Ctr returns the number of operations applied so far (across all
// shards).
func (db *DB) Ctr() uint64 {
	db.fmu.Lock()
	defer db.fmu.Unlock()
	return db.gctr
}

// Root returns the current root-of-roots M(D): for a single shard the
// plain tree root, otherwise the DomainForest fold of the per-shard
// heads.
func (db *DB) Root() digest.Digest {
	_, root := db.Head()
	return root
}

// Head returns the operation counter and root-of-roots as one
// consistent pair. Separate Ctr/Root calls can interleave with a
// concurrent Apply and pair a counter with the wrong tree; a
// commitment built from such a torn pair would read as a fork at every
// honest witness.
func (db *DB) Head() (uint64, digest.Digest) {
	db.fmu.Lock()
	gctr := db.gctr
	heads := append([]headEntry(nil), db.heads...)
	db.fmu.Unlock()
	// Digest computation happens outside the lock: the captured trees
	// are persistent and their root digests are memoized.
	return gctr, FoldHeads(shardHeadsOf(heads))
}

// Len returns the number of records across all shards.
func (db *DB) Len() int {
	db.fmu.Lock()
	heads := append([]headEntry(nil), db.heads...)
	db.fmu.Unlock()
	n := 0
	for _, e := range heads {
		n += e.tree.Len()
	}
	return n
}

// Apply executes op, increments ctr, and returns the canonical answer
// encoding plus the verification object for the transition. On error
// the database is unchanged.
//
// Apply performs everything — including answer encoding and VO
// construction — before publishing the transition, which is the right
// shape for sequential callers (simulations, tests, the CLI). The
// pipelined servers use Begin/Finish instead to keep the serialized
// window minimal.
func (db *DB) Apply(op Op) (ansBytes []byte, vo *merkle.VO, err error) {
	sid, err := db.ShardFor(op)
	if err != nil {
		return nil, nil, err
	}
	s := db.shards[sid]
	s.lock()
	defer s.unlock()
	rec := s.tree.Record()
	ans, err := op.Apply((*Tx)(rec))
	if err != nil {
		return nil, nil, err
	}
	// Encoding before publishing is what buys Apply its
	// unchanged-on-error contract.
	ansBytes, err = EncodeAnswer(ans)
	if err != nil {
		return nil, nil, err
	}
	s.tree = rec.Tree()
	s.ctr++
	db.publish(sid, s)
	return ansBytes, rec.VO(), nil
}

// publish records a shard's new (tree, ctr) in the head vector and
// bumps gctr, all under fmu. Must be called with the shard's mutex
// held, so the publication order within one shard matches its apply
// order.
func (db *DB) publish(sid int, s *shard) {
	db.fmu.Lock()
	db.gctr++
	db.heads[sid] = headEntry{tree: s.tree, ctr: s.ctr}
	db.fmu.Unlock()
}

// Staged is the committed-but-unencoded result of Begin: the ordered
// section already applied the operation and advanced the counters;
// Finish does the remaining work — canonical answer encoding and VO
// pruning — on the captured immutable snapshot, outside any lock.
type Staged struct {
	shard    int
	preCtr   uint64
	postGctr uint64
	rec      *merkle.Recording
	ans      any
	heads    []headEntry // published head vector; nil on a single-shard DB
}

// Begin routes op to its shard and runs that shard's ordered section.
// See BeginShard; on a single-shard database this is exactly the
// pre-forest Begin.
func (db *DB) Begin(op Op) (*Staged, error) {
	sid, err := db.ShardFor(op)
	if err != nil {
		return nil, err
	}
	return db.BeginShard(sid, op)
}

// BeginShard is the ordered section of the pipelined hot path for one
// shard: it applies op to the shard's persistent tree, bumps the shard
// counter, publishes the new head under fmu, and captures the
// recording — and nothing else. The returned Staged references only
// immutable nodes of the persistent tree, so Finish (and any number of
// other Staged results from earlier or later operations, on this shard
// or any other) can run concurrently with subsequent Begins. On error
// the database is unchanged.
//
// Unlike Apply, a failure to encode the answer surfaces in Finish,
// after the transition is already committed; that only happens for
// answers outside the WireAnswer set, which is a bug in the operation,
// not a reachable server state.
func (db *DB) BeginShard(sid int, op Op) (*Staged, error) {
	return db.BeginShardIn(sid, op, nil)
}

// BeginShardIn is BeginShard with a section hook: section (if non-nil)
// runs inside the shard's ordered section, after the operation has
// committed and published, so a caller can swap its own per-shard
// bookkeeping atomically with the counter bump — without stacking a
// second mutex in front of the instrumented one, which would both
// double the lock hand-offs on the hot path and hide the real queueing
// from the shard's contention counters. section must be short; its
// time is accounted as held time. It does not run if the operation
// fails.
func (db *DB) BeginShardIn(sid int, op Op, section func(st *Staged)) (*Staged, error) {
	if sid < 0 || sid >= len(db.shards) {
		return nil, fmt.Errorf("%w: shard %d out of range [0,%d)", ErrBadOp, sid, len(db.shards))
	}
	s := db.shards[sid]
	s.lock()
	rec := s.tree.Record()
	ans, err := op.Apply((*Tx)(rec))
	if err != nil {
		s.unlock()
		return nil, err
	}
	st := &Staged{shard: sid, preCtr: s.ctr, rec: rec, ans: ans}
	s.tree = rec.Tree()
	s.ctr++
	db.fmu.Lock()
	db.gctr++
	db.heads[sid] = headEntry{tree: s.tree, ctr: s.ctr}
	st.postGctr = db.gctr
	if len(db.shards) > 1 {
		st.heads = append([]headEntry(nil), db.heads...)
	}
	db.fmu.Unlock()
	if section != nil {
		section(st)
	}
	s.unlock()
	return st, nil
}

// PreCtr returns the shard counter as of the start of the staged
// operation — the value the protocols present to the user.
func (st *Staged) PreCtr() uint64 { return st.preCtr }

// Shard returns the shard the operation ran on.
func (st *Staged) Shard() int { return st.shard }

// PostGctr returns the global operation counter as of the publication
// of this operation.
func (st *Staged) PostGctr() uint64 { return st.postGctr }

// Heads returns the published per-shard head vector as of this
// operation, nil on a single-shard database. Root digests are computed
// here, outside every lock (they are memoized on the persistent
// trees).
func (st *Staged) Heads() []ShardHead { return shardHeadsOf(st.heads) }

// Finish produces the canonical answer encoding and the verification
// object. It is safe to call concurrently with any database activity.
func (st *Staged) Finish() (ansBytes []byte, vo *merkle.VO, err error) {
	ansBytes, err = EncodeAnswer(st.ans)
	if err != nil {
		return nil, nil, err
	}
	return ansBytes, st.rec.VO(), nil
}

// Preload applies op without advancing ctr or building a VO. It
// constructs the initial database state D₀ (which the paper allows to
// be arbitrary, with M(D₀) common knowledge) before any protocol
// starts; it must not be called afterwards. On a sharded database a
// WriteOp is split per shard; any other op must route to one shard.
func (db *DB) Preload(op Op) error {
	parts, err := db.splitPreload(op)
	if err != nil {
		return err
	}
	for sid, part := range parts {
		if part == nil {
			continue
		}
		s := db.shards[sid]
		s.lock()
		rec := s.tree.Begin()
		if _, err := part.Apply((*Tx)(rec)); err != nil {
			s.unlock()
			return err
		}
		s.tree = rec.Tree()
		db.fmu.Lock()
		db.heads[sid] = headEntry{tree: s.tree, ctr: s.ctr}
		db.fmu.Unlock()
		s.unlock()
	}
	return nil
}

// ApplyPlain executes op without building a verification object — the
// trusted-server execution path, used as the performance floor in the
// workload-preservation experiments (desideratum 3).
func (db *DB) ApplyPlain(op Op) (ansBytes []byte, err error) {
	sid, err := db.ShardFor(op)
	if err != nil {
		return nil, err
	}
	s := db.shards[sid]
	s.lock()
	defer s.unlock()
	rec := s.tree.Begin()
	ans, err := op.Apply((*Tx)(rec))
	if err != nil {
		return nil, err
	}
	// Deliberately mirrors the seed's fully serialized trusted path so
	// the workload-preservation experiments measure what they claim.
	ansBytes, err = EncodeAnswer(ans)
	if err != nil {
		return nil, err
	}
	s.tree = rec.Tree()
	s.ctr++
	db.publish(sid, s)
	return ansBytes, nil
}

// Snapshot captures the database (tree structure + operation counters)
// for persistence. The restored database has the identical
// root-of-roots, so a restarted server stays consistent with every
// client's verified state.
func (db *DB) Snapshot() *DBSnapshot {
	db.fmu.Lock()
	gctr := db.gctr
	heads := append([]headEntry(nil), db.heads...)
	db.fmu.Unlock()
	// The structural walk happens outside the lock: trees are
	// persistent, so the captured versions never change under us.
	if len(heads) == 1 {
		return &DBSnapshot{Ctr: gctr, Tree: heads[0].tree.Snapshot()}
	}
	out := &DBSnapshot{Ctr: gctr, Shards: make([]ShardSnapshot, len(heads))}
	for i, e := range heads {
		out.Shards[i] = ShardSnapshot{Ctr: e.ctr, Tree: e.tree.Snapshot()}
	}
	return out
}

// DBSnapshot is the persistent form of a DB. Exactly one of Tree
// (single-shard layout) and Shards (forest layout, one entry per
// shard) is set.
type DBSnapshot struct {
	Ctr    uint64
	Tree   *merkle.Snapshot
	Shards []ShardSnapshot
}

// ShardSnapshot is the persistent form of one shard.
type ShardSnapshot struct {
	Ctr  uint64
	Tree *merkle.Snapshot
}

// AppendSnapshot appends s, which must be what DB.Snapshot returns, to
// b, with n = 0 for the single-shard layout and each tree as
// merkle.Snapshot writes it:
//
//	db = uvarint(ctr) uvarint(n) ( tree | n×( uvarint(ctr_s) tree ) )
func AppendSnapshot(b []byte, s *DBSnapshot) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(b, s.Ctr), uint64(len(s.Shards)))
	if len(s.Shards) == 0 {
		return s.Tree.Append(b)
	}
	for _, ss := range s.Shards {
		b = ss.Tree.Append(binary.AppendUvarint(b, ss.Ctr))
	}
	return b
}

// ReadSnapshot reads what AppendSnapshot wrote. The shard count is
// bounded by the bytes left (a shard is at least a counter, a record
// count and the length-prefixed two bytes of an empty tree); whether it
// is legal, the trees are trees and the counters add up is RestoreDB's
// call.
func ReadSnapshot(r *binenc.Reader) *DBSnapshot {
	s := &DBSnapshot{Ctr: r.Uvarint(), Shards: make([]ShardSnapshot, r.Count(5))}
	if len(s.Shards) == 0 {
		s.Tree = merkle.ReadSnapshot(r)
	}
	for i := range s.Shards {
		s.Shards[i] = ShardSnapshot{Ctr: r.Uvarint(), Tree: merkle.ReadSnapshot(r)}
	}
	return s
}

// RestoreDB rebuilds a database from a snapshot.
func RestoreDB(s *DBSnapshot) (*DB, error) {
	if s == nil || (s.Tree == nil && len(s.Shards) == 0) {
		return nil, errors.New("vdb: nil snapshot")
	}
	if len(s.Shards) == 0 {
		t, err := merkle.Restore(s.Tree)
		if err != nil {
			return nil, err
		}
		db := newForest(1)
		db.shards[0].tree, db.shards[0].ctr = t, s.Ctr
		db.gctr = s.Ctr
		db.heads[0] = headEntry{tree: t, ctr: s.Ctr}
		return db, nil
	}
	if len(s.Shards) > MaxShards {
		return nil, fmt.Errorf("vdb: snapshot has %d shards, max %d", len(s.Shards), MaxShards)
	}
	db := newForest(len(s.Shards))
	var sum uint64
	for i, ss := range s.Shards {
		if ss.Tree == nil {
			return nil, fmt.Errorf("vdb: snapshot shard %d has nil tree", i)
		}
		t, err := merkle.Restore(ss.Tree)
		if err != nil {
			return nil, fmt.Errorf("vdb: snapshot shard %d: %w", i, err)
		}
		db.shards[i].tree, db.shards[i].ctr = t, ss.Ctr
		db.heads[i] = headEntry{tree: t, ctr: ss.Ctr}
		sum += ss.Ctr
	}
	// Snapshots are untrusted input read back from disk: the forest
	// invariant gctr = Σ shard counters must hold or the file is
	// corrupt (or forged).
	if sum != s.Ctr {
		return nil, fmt.Errorf("vdb: snapshot gctr %d != sum of shard counters %d", s.Ctr, sum)
	}
	db.gctr = s.Ctr
	return db, nil
}

// Fork returns an independent copy of the database sharing structure
// with the original — the primitive the adversary package uses to
// mount the Figure 1 partition attack. Cheap because the trees are
// persistent; the cut is the published head vector, a consistent point
// of the forest order.
func (db *DB) Fork() *DB {
	db.fmu.Lock()
	gctr := db.gctr
	heads := append([]headEntry(nil), db.heads...)
	db.fmu.Unlock()
	out := newForest(len(heads))
	for i, e := range heads {
		out.shards[i].tree, out.shards[i].ctr = e.tree, e.ctr
		out.heads[i] = e
	}
	out.gctr = gctr
	return out
}

// VerifyDerive replays op on the VO's pruned pre-state without a
// prior expectation of the old root: it returns both the old root
// digest *derived from the VO* and the post-state root. The replayed
// answer is checked against the server's claimed answer.
//
// Protocol I authenticates the derived old root with the previous
// user's signature over h(M(D)‖ctr); Protocol II feeds it into the
// XOR registers and authenticates the whole chain at sync time. A
// client that instead tracks its own trusted root (single-user
// setting) uses Verify.
func VerifyDerive(op Op, claimedAns []byte, vo *merkle.VO) (oldRoot, newRoot digest.Digest, err error) {
	oldRoot, newRoot, _, err = VerifyDeriveTree(op, claimedAns, vo)
	return oldRoot, newRoot, err
}

// VerifyDeriveTree is VerifyDerive that additionally returns the
// post-state tree the replay produced. The epoch auditor caches it so
// a directly adjacent next operation by the same user can be replayed
// on it (ReplayOn) without unpacking and re-hashing a fresh VO — the
// "shared path recomputation" of the audit batch.
func VerifyDeriveTree(op Op, claimedAns []byte, vo *merkle.VO) (oldRoot, newRoot digest.Digest, post *merkle.Tree, err error) {
	if vo == nil {
		return digest.Zero, digest.Zero, nil, errors.New("vdb: missing verification object")
	}
	rec, oldRoot, err := vo.Begin()
	if err != nil {
		return digest.Zero, digest.Zero, nil, err
	}
	newRoot, post, err = replay(rec, op, claimedAns)
	return oldRoot, newRoot, post, err
}

// replay runs op in rec and checks the claimed answer against it.
func replay(rec *merkle.Recording, op Op, claimedAns []byte) (newRoot digest.Digest, post *merkle.Tree, err error) {
	ans, err := op.Apply((*Tx)(rec))
	if err != nil {
		return digest.Zero, nil, err
	}
	if err := checkClaim(ans, claimedAns); err != nil {
		return digest.Zero, nil, err
	}
	post = rec.Tree()
	return post.RootDigest(), post, nil
}

// ReplayOn replays op directly on prev, a post-state tree a prior
// VerifyDeriveTree (or ReplayOn) produced, and checks the claimed
// answer against the replay. It is the audit batch's fast path: when
// the server's claimed pre-counter says this operation directly
// extends the verifier's own last verified state, the pre-state is
// already in hand and the VO need not be unpacked at all. prev is not
// modified (trees are persistent).
//
// prev is pruned to the paths the producing VO covered, so a replay
// touching keys outside that coverage fails with merkle.ErrPruned —
// the caller falls back to the full VO path. An answer mismatch here
// is the same lie it is in VerifyDerive (the claimed answer is not
// what the committed state yields).
func ReplayOn(prev *merkle.Tree, op Op, claimedAns []byte) (newRoot digest.Digest, post *merkle.Tree, err error) {
	return replay(prev.Begin(), op, claimedAns)
}

// checkClaim judges the server's claimed answer bytes against a
// locally replayed answer. The encoding is canonical, so equal answers
// are equal bytes and nothing needs decoding; claimed bytes that are not
// a canonical encoding at all simply differ from every local one.
func checkClaim(ans any, claimedAns []byte) error {
	got, err := EncodeAnswer(ans)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, claimedAns) {
		return ErrAnswerMismatch
	}
	return nil
}

// Verify is the client side for a caller that already trusts a root:
// it replays op on the VO's pruned pre-state, checks the pre-state
// against oldRoot, checks the replayed answer against the server's
// claimed answer, and returns the post-state root digest the client
// computed itself.
//
// Verify enforces the three checks of Section 4.1: the VO is
// consistent with the trusted root, the answer is what the committed
// database yields, and the new root is the correct successor state.
func Verify(op Op, claimedAns []byte, vo *merkle.VO, oldRoot digest.Digest) (newRoot digest.Digest, err error) {
	derivedOld, newRoot, err := VerifyDerive(op, claimedAns, vo)
	if err != nil {
		return digest.Zero, err
	}
	if derivedOld != oldRoot {
		return digest.Zero, fmt.Errorf("%w: VO root %s, trusted root %s",
			merkle.ErrRootMismatch, derivedOld.Short(), oldRoot.Short())
	}
	return newRoot, nil
}
