// Package proto2 implements Protocol II of the Trusted CVS paper
// (Section 4.3): no per-operation signatures, no PKI, and no blocking
// third message. Each user keeps two constant-size registers — σᵢ, the
// XOR of every user-tagged state h(M(D)‖ctr‖j) it has seen, and lastᵢ,
// the tagged state of its own most recent operation. Every k
// operations the users broadcast their registers and check that
//
//	h(M(D₀)‖0‖genesis) ⊕ lastᵢ = ⊕ₖ σₖ   for some user i,
//
// which by Lemma 4.1 holds iff the states the server produced form a
// single directed path — one linear history, no forks, no replays
// (Theorem 4.2).
//
// Message flow per operation (two messages):
//
//	user → server: OpRequest{op}
//	server → user: OpResponseII{answer, VO, ctr, j}
package proto2

import (
	"errors"
	"fmt"
	"sync"

	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

// Server is the (honest) Protocol II server state machine: the
// database plus the identity of the last user to operate on it.
//
// Server is safe for concurrent use. HandleOp is a three-stage
// pipeline: request decoding happens upstream (per connection, no
// lock); the ordered section under mu applies the operation, bumps
// ctr, and swaps the last-user tag — the linearization point every
// detection argument refers to; VO pruning and answer encoding then
// run outside the lock on the captured immutable snapshot. See
// DESIGN.md "Concurrency model".
type Server struct {
	mu       sync.Mutex
	db       *vdb.DB
	lastUser sig.UserID
}

// NewServer wraps db with Protocol II bookkeeping. The initial state
// is tagged with the reserved genesis ID.
func NewServer(db *vdb.DB) *Server {
	return &Server{db: db, lastUser: sig.GenesisID}
}

// DB exposes the underlying database.
func (s *Server) DB() *vdb.DB { return s.db }

// Fork returns an independent copy of the server sharing history up to
// now — the primitive behind the Figure 1 partition attack. Honest
// servers never call this; internal/adversary does.
func (s *Server) Fork() *Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Server{db: s.db.Fork(), lastUser: s.lastUser}
}

// LastUser returns j, the user whose operation produced the current
// state (persisted across server restarts).
func (s *Server) LastUser() sig.UserID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastUser
}

// Checkpoint atomically captures the server's persistent state: an
// O(1) fork of the database (persistent tree) plus the last-user tag,
// taken at one point of the operation order. The snapshot walk itself
// can then run outside the lock, so a live server checkpoints without
// stalling its pipeline.
func (s *Server) Checkpoint() (*vdb.DB, sig.UserID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.Fork(), s.lastUser
}

// NewServerAt wraps a restored database, resuming from the given last
// user.
func NewServerAt(db *vdb.DB, lastUser sig.UserID) *Server {
	return &Server{db: db, lastUser: lastUser}
}

// HandleOp applies the operation and returns (answer, VO, ctr, j).
// Unlike Protocol I there is nothing to wait for afterwards.
func (s *Server) HandleOp(req *core.OpRequest) (*core.OpResponseII, error) {
	// Ordered section: apply + ctr bump + last-user swap. The captured
	// (staged, last) pair fully determines the response.
	s.mu.Lock()
	st, err := s.db.Begin(req.Op)
	if err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("proto2: apply: %w", err)
	}
	last := s.lastUser
	s.lastUser = req.User
	s.mu.Unlock()

	// Post-processing on the immutable snapshot: VO pruning and answer
	// encoding run concurrently with subsequent operations.
	ans, vo, err := st.Finish()
	if err != nil {
		return nil, fmt.Errorf("proto2: encode: %w", err)
	}
	return &core.OpResponseII{
		Answer: ans,
		VO:     vo,
		Ctr:    st.PreCtr(),
		Last:   last,
	}, nil
}

// User is the Protocol II user state machine: the registers (σᵢ,
// lastᵢ, gctrᵢ, lctrᵢ) — constant size regardless of history length.
// An optional bounded journal (EnableJournal) supports post-detection
// fault localization via internal/forensics.
type User struct {
	id           sig.UserID
	k            uint64
	sinceSync    uint64
	regs         core.Registers
	initialState digest.Digest
	journal      *forensics.Journal
	head         vdb.Head // the post-state of the last verified response

	// verifier is the memory every response is verified in; between
	// responses it holds no pointer into any of them (vdb.Verifier).
	verifier vdb.Verifier
}

// EnableJournal attaches a bounded transition journal of the given
// capacity for fault localization (the paper's future work item 1).
// Capacity trades memory (a relaxation of desideratum 5) for how far
// back a fault can be pinpointed after detection.
func (u *User) EnableJournal(cap int) {
	u.journal = forensics.NewJournal(u.id, cap)
}

// Journal returns the user's transition journal (nil if not enabled).
func (u *User) Journal() *forensics.Journal { return u.journal }

// NewUser creates the user state machine. initialRoot is M(D₀), which
// the paper assumes is common knowledge; k is the synchronization
// period.
func NewUser(id sig.UserID, initialRoot digest.Digest, k uint64) *User {
	if k == 0 {
		panic("proto2: sync period k must be positive")
	}
	g := core.GenesisState(initialRoot)
	u := &User{id: id, k: k, initialState: g}
	u.regs.Last = g
	return u
}

// ID returns the user's identity.
func (u *User) ID() sig.UserID { return u.id }

// LCtr returns lctrᵢ.
func (u *User) LCtr() uint64 { return u.regs.Ops }

// Registers returns a copy of the user's registers (for experiments
// measuring state size and for Protocol III, which embeds this type).
func (u *User) Registers() core.Registers { return u.regs }

// VerifiedRoot returns the head this user most recently verified
// through a VO — the local truth a witness commitment for the same ctr
// must agree with. The zero Head before any operation.
func (u *User) VerifiedRoot() vdb.Head { return u.head }

// Request builds the operation request for op.
func (u *User) Request(op vdb.Op) *core.OpRequest {
	return &core.OpRequest{User: u.id, Op: op}
}

// HandleResponse verifies the server's reply to op, folds the verified
// transition into the registers, and returns the decoded answer. On
// deviation it returns a *core.DetectionError.
func (u *User) HandleResponse(op vdb.Op, resp *core.OpResponseII) (any, error) {
	v, err := u.verify(op, resp)
	if err != nil {
		return nil, err
	}
	ans, err := v.Answer()
	if err != nil {
		return nil, core.Detect(core.ProtocolViolation, u.id, u.regs.Ops, err)
	}
	return ans, nil
}

// VerifyResponse is HandleResponse without the answer decode: it
// verifies the reply and folds the transition into the registers, but
// never materializes the answer value. The epoch auditor uses it —
// the answer was already decoded optimistically on the hot path, so
// re-decoding it at audit time would be pure waste.
func (u *User) VerifyResponse(op vdb.Op, resp *core.OpResponseII) error {
	_, err := u.verify(op, resp)
	return err
}

// verify checks resp, folds the transition into the registers and
// returns the Verified the answer is decoded from.
func (u *User) verify(op vdb.Op, resp *core.OpResponseII) (vdb.Verified, error) {
	if resp == nil || resp.VO == nil {
		return vdb.Verified{}, core.Detect(core.ProtocolViolation, u.id, u.regs.Ops, errors.New("missing response or VO"))
	}
	// Step 4 (with the strict inequality; see DESIGN.md errata): the
	// server may never show this user a counter below one it has
	// already seen — that is a replay.
	if resp.Ctr < u.regs.GCtr {
		return vdb.Verified{}, core.Detect(core.CounterReplay, u.id, u.regs.Ops,
			fmt.Errorf("server presented ctr %d after gctr %d", resp.Ctr, u.regs.GCtr))
	}
	v, err := u.verifier.VerifyDerive(op, resp.Answer, resp.VO)
	if err != nil {
		return vdb.Verified{}, core.Detect(classify(err), u.id, u.regs.Ops, err)
	}
	oldState, newState := u.regs.Absorb(v, resp.Ctr, resp.Last, u.id)
	u.head = v.At(resp.Ctr + 1)
	if u.journal != nil {
		u.journal.Record(resp.Ctr+1, oldState, newState)
	}
	u.sinceSync++
	return v, nil
}

// NeedsSync reports whether this user must announce a sync-up.
func (u *User) NeedsSync() bool { return u.sinceSync >= u.k }

// InitialState returns the genesis tagged state h(M(D₀)‖0‖genesis) the
// user's chain is rooted at. The epoch auditor evaluates closure checks
// against it directly from register snapshots.
func (u *User) InitialState() digest.Digest { return u.initialState }

// SyncReport is the user's broadcast contribution to a sync round.
func (u *User) SyncReport() core.SyncReportII {
	return core.SyncReportII{User: u.id, Sigma: u.regs.Sigma, Last: u.regs.Last}
}

// CompleteSync evaluates a full set of sync reports.
func (u *User) CompleteSync(reports []core.SyncReportII) error {
	if core.CheckSyncII(u.initialState, reports) < 0 {
		return core.Detect(core.SyncMismatch, u.id, u.regs.Ops,
			errors.New("no last register closes the state chain"))
	}
	u.sinceSync = 0
	return nil
}

func classify(err error) core.DetectionClass {
	if errors.Is(err, vdb.ErrAnswerMismatch) {
		return core.BadAnswer
	}
	return core.BadVO
}
