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

// Put writes a key. The value is copied (into the tree's node).
func (tx *Tx) Put(key string, val []byte) error { return tx.rec().Put(key, val) }

// Delete removes a key, reporting whether it existed.
func (tx *Tx) Delete(key string) (bool, error) { return tx.rec().Delete(key) }

// Range scans keys in [lo, hi) in order ("" hi = unbounded). The key
// and value are windows onto the tree's bytes: fn must not modify them
// and copies what it keeps.
func (tx *Tx) Range(lo, hi string, fn func(key, val []byte) bool) error {
	return tx.rec().Range(lo, hi, fn)
}

// An Op is a deterministic transaction. Apply must depend only on the
// Op's fields and the Tx state: no clocks, no randomness, no maps
// iterated in answer order. The returned answer must be one of the
// WireAnswer types, returned by value.
//
// Implementations live in this package (ReadOp, WriteOp, RangeOp) and
// in internal/cvs (CommitOp, CheckoutOp, LogOp, ...). Concrete op types
// travel inside interface-typed fields and are registered in the wire
// tag table (wire.Register) by their own package.
type Op interface {
	Apply(tx *Tx) (answer any, err error)
}

// DB is the server-side authenticated database: one Merkle tree plus
// the operation counter ctr from Protocol I ("the count of the number
// of operations performed on the database").
//
// DB is safe for concurrent use. Mutations linearize on mu, whose
// critical section is deliberately tiny — apply the operation to the
// persistent tree and bump the counter — so the cryptographic heavy
// lifting (VO pruning, answer encoding) runs outside it via
// Begin/Finish. Readers (Ctr, Root, Head, Len, Fork, Snapshot) take
// only hmu and never block on an in-flight apply.
//
// Lock order: mu before hmu, never after.
type DB struct {
	mu sync.Mutex // the ordered section

	// hmu guards the published head: tree and ctr change together,
	// under both mutexes, and are read under either.
	hmu  sync.Mutex
	tree *merkle.Tree
	ctr  uint64
}

// New creates an empty database with the given Merkle branching factor
// (0 = merkle.DefaultOrder).
func New(order int) *DB {
	return &DB{tree: merkle.New(order)}
}

// head returns the published (ctr, tree) pair.
func (db *DB) head() (uint64, *merkle.Tree) {
	db.hmu.Lock()
	defer db.hmu.Unlock()
	return db.ctr, db.tree
}

// publish installs t as the head, advancing ctr by n. Must be called
// with mu held.
func (db *DB) publish(t *merkle.Tree, n uint64) {
	db.hmu.Lock()
	db.tree = t
	db.ctr += n
	db.hmu.Unlock()
}

// Ctr returns the number of operations applied so far.
func (db *DB) Ctr() uint64 {
	ctr, _ := db.head()
	return ctr
}

// Root returns the current root digest M(D).
func (db *DB) Root() digest.Digest {
	_, root := db.Head()
	return root
}

// Head returns the operation counter and root digest as one consistent
// pair. Separate Ctr/Root calls can interleave with a concurrent Apply
// and pair a counter with the wrong tree; a commitment built from such
// a torn pair would read as a fork at every honest witness.
func (db *DB) Head() (uint64, digest.Digest) {
	// The root digest is computed outside the lock: the captured tree
	// is persistent and its root digest memoized.
	ctr, t := db.head()
	return ctr, t.RootDigest()
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
	db.mu.Lock()
	defer db.mu.Unlock()
	rec := db.tree.Record()
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
	db.publish(rec.Tree(), 1)
	return ansBytes, rec.VO(), nil
}

// Staged is the committed-but-unencoded result of Begin: the ordered
// section already applied the operation and advanced the counter;
// Finish does the remaining work on the captured immutable pre-state,
// outside any lock: it encodes the answer and cuts the VO, which sizes
// itself and copies nothing. The VO's bytes are written once, from the
// pre-state, by whoever needs them: the response's encoder straight
// into its frame, or a reader that materializes them (merkle.VO).
type Staged struct {
	preCtr uint64
	rec    *merkle.Recording
	ans    any
	txn    merkle.Recorder // rec's memory: Begin allocates the two as one
}

// Begin is the ordered section of the pipelined hot path: it applies
// op to the persistent tree, bumps ctr, publishes the new head, and
// captures the recording — and nothing else. The returned Staged
// references only immutable nodes of the persistent tree, so Finish
// (and any number of other Staged results from earlier or later
// operations) can run concurrently with subsequent Begins. On error
// the database is unchanged.
//
// Unlike Apply, a failure to encode the answer surfaces in Finish,
// after the transition is already committed; that only happens for
// answers outside the WireAnswer set, which is a bug in the operation,
// not a reachable server state.
func (db *DB) Begin(op Op) (*Staged, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := new(Staged)
	st.rec = db.tree.RecordIn(&st.txn)
	ans, err := op.Apply((*Tx)(st.rec))
	if err != nil {
		return nil, err
	}
	st.preCtr, st.ans = db.ctr, ans
	db.publish(st.rec.Tree(), 1)
	return st, nil
}

// PreCtr returns the counter as of the start of the staged operation —
// the value the protocols present to the user.
func (st *Staged) PreCtr() uint64 { return st.preCtr }

// Finish produces the canonical answer encoding and the verification
// object, which holds the pre-state until it is written or
// materialized. It is safe to call concurrently with any database
// activity.
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
// starts; it must not be called afterwards.
func (db *DB) Preload(op Op) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec := db.tree.Begin()
	if _, err := op.Apply((*Tx)(rec)); err != nil {
		return err
	}
	db.publish(rec.Tree(), 0)
	return nil
}

// ApplyPlain executes op without building a verification object — the
// trusted-server execution path, used as the performance floor in the
// workload-preservation experiments (desideratum 3).
func (db *DB) ApplyPlain(op Op) (ansBytes []byte, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec := db.tree.Begin()
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
	db.publish(rec.Tree(), 1)
	return ansBytes, nil
}

// Snapshot captures the database (tree structure + operation counter)
// for persistence. The restored database has the identical root, so a
// restarted server stays consistent with every client's verified
// state.
func (db *DB) Snapshot() *DBSnapshot {
	// The structural walk happens outside the lock: the tree is
	// persistent, so the captured version never changes under us.
	ctr, t := db.head()
	return &DBSnapshot{Ctr: ctr, Tree: t.Snapshot()}
}

// DBSnapshot is the persistent form of a DB.
type DBSnapshot struct {
	Ctr  uint64
	Tree *merkle.Snapshot
}

// ErrForestSnapshot is returned by ReadSnapshot for the sharded layout
// earlier binaries wrote for a Merkle forest, which this binary does
// not restore.
var ErrForestSnapshot = errors.New("vdb: snapshot holds a sharded database")

// AppendSnapshot appends s to b, the tree as merkle.Snapshot writes it:
//
//	db = uvarint(ctr) 00 tree
//
// The 00 is the shard count of the retired sharded layout, which a
// single tree always wrote as zero.
func AppendSnapshot(b []byte, s *DBSnapshot) []byte {
	return s.Tree.Append(append(binary.AppendUvarint(b, s.Ctr), 0))
}

// ReadSnapshot reads what AppendSnapshot wrote; a nonzero shard count
// is ErrForestSnapshot. Whether the tree is a tree is RestoreDB's call.
func ReadSnapshot(r *binenc.Reader) (*DBSnapshot, error) {
	s := &DBSnapshot{Ctr: r.Uvarint()}
	if r.Uvarint() != 0 {
		return nil, ErrForestSnapshot
	}
	s.Tree = merkle.ReadSnapshot(r)
	return s, nil
}

// RestoreDB rebuilds a database from a snapshot.
func RestoreDB(s *DBSnapshot) (*DB, error) {
	if s == nil || s.Tree == nil {
		return nil, errors.New("vdb: nil snapshot")
	}
	t, err := merkle.Restore(s.Tree)
	if err != nil {
		return nil, err
	}
	return &DB{tree: t, ctr: s.Ctr}, nil
}

// Fork returns an independent copy of the database sharing structure
// with the original — the primitive the adversary package uses to
// mount the Figure 1 partition attack. Cheap because the tree is
// persistent; the cut is the published head.
func (db *DB) Fork() *DB {
	ctr, t := db.head()
	return &DB{tree: t, ctr: ctr}
}

// VerifyDerive replays op on the VO's pruned pre-state without a
// prior expectation of the old root: it returns both the old root
// digest *derived from the VO* and the post-state root. The replayed
// answer is checked against the server's claimed answer. It verifies
// in fresh memory, the reference a Verifier's reused memory is judged
// against.
//
// The two digests are bare: nothing that keeps trusted state takes
// them. The protocol users verify through a Verifier, whose Verified
// is what their registers and witness checks accept. A client that
// instead tracks its own trusted root (single-user setting) uses
// Verify.
func VerifyDerive(op Op, claimedAns []byte, vo *merkle.VO) (oldRoot, newRoot digest.Digest, err error) {
	if vo == nil {
		return digest.Zero, digest.Zero, errMissingVO
	}
	rec, oldRoot, err := vo.Begin()
	if err != nil {
		return digest.Zero, digest.Zero, err
	}
	v, _, err := replay(rec, oldRoot, op, claimedAns, nil)
	return v.oldRoot, v.newRoot, err
}

// replay runs op in rec, a pre-state whose root is oldRoot, and checks
// the claimed answer against it: the one place a Verified is made. It
// encodes the replayed answer into buf and returns the buffer.
func replay(rec *merkle.Recording, oldRoot digest.Digest, op Op, claimedAns, buf []byte) (Verified, []byte, error) {
	ans, err := op.Apply((*Tx)(rec))
	if err != nil {
		return Verified{}, buf, err
	}
	if buf, err = checkClaim(ans, claimedAns, buf); err != nil {
		return Verified{}, buf, err
	}
	return Verified{oldRoot: oldRoot, newRoot: rec.Tree().RootDigest(), answer: claimedAns, ok: true}, buf, nil
}

// A Verifier is VerifyDerive with memory of its own, for a verifier
// that keeps nothing of a replay but its Verified — every protocol
// user, the epoch auditor's included. It materializes each VO into a
// merkle.Arena, replays in it and encodes the replayed answer into
// one buffer, and the next call reuses all of it: verifying allocates
// nothing once the memory has grown to the responses verified. Between
// calls a Verifier holds no pointer into any VO, frame or tree, only
// memory at most four times what the last verification used (or a few
// KB; the answer buffer follows binenc.Oversized); a refused response
// drops all of it. The zero Verifier is ready to use; a Verifier is
// not safe for concurrent use.
type Verifier struct {
	arena merkle.Arena
	ans   []byte
}

// VerifyDerive is the package's VerifyDerive in v's memory: the same
// checks and the same errors, its outcome a Verified.
func (v *Verifier) VerifyDerive(op Op, claimedAns []byte, vo *merkle.VO) (Verified, error) {
	if vo == nil {
		return Verified{}, errMissingVO
	}
	var out Verified
	rec, oldRoot, err := v.arena.Begin(vo)
	if err == nil {
		out, v.ans, err = replay(rec, oldRoot, op, claimedAns, v.ans)
	}
	v.arena.End()
	if err != nil {
		*v = Verifier{}
		return Verified{}, err
	}
	v.ans = binenc.Recycle(v.ans)
	return out, nil
}

var errMissingVO = errors.New("vdb: missing verification object")

// checkClaim judges the server's claimed answer bytes against a
// locally replayed answer. The encoding is canonical, so equal answers
// are equal bytes and nothing needs decoding; claimed bytes that are not
// a canonical encoding at all simply differ from every local one. The
// local encoding is written over buf, which checkClaim returns.
func checkClaim(ans any, claimedAns, buf []byte) ([]byte, error) {
	got, err := appendAnswer(buf[:0], ans)
	if err != nil {
		return buf, err
	}
	if !bytes.Equal(got, claimedAns) {
		return got, ErrAnswerMismatch
	}
	return got, nil
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
