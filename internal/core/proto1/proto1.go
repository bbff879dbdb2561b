// Package proto1 implements Protocol I of the Trusted CVS paper
// (Section 4.2): every database state h(M(D)‖ctr) is signed by the
// user that produced it; the server must present the latest signed
// state with every answer, and the user counter-signs the successor
// state. Every k operations the users synchronize over the broadcast
// channel and check that some user's gctr equals Σ lctrₖ, which pins
// all operations onto one linear history (Theorem 4.1).
//
// Message flow per operation (three messages — the extra user→server
// signature message is the blocking step Protocol II removes):
//
//	user → server: OpRequest{op}
//	server → user: OpResponseI{answer, VO, ctr, j, sig_j(h(M(D)‖ctr))}
//	user → server: AckRequest{sig_i(h(M(D′)‖ctr+1))}
//
// Server and User are pure state machines: they perform no I/O and are
// driven by internal/sim (deterministic experiments) or the live
// transport driver.
package proto1

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

// ErrAckPending is returned by an honest server when an operation
// arrives before the previous operation's signature ack. (A malicious
// server is free to violate this; users detect the consequences.)
var ErrAckPending = errors.New("proto1: previous operation's ack is still pending")

// ErrNoAckDue is returned when an ack arrives with no operation
// outstanding.
var ErrNoAckDue = errors.New("proto1: no ack is due")

// InitState is the elected user's signature over the initial database
// state, h(M(D₀)‖0), installed on the server before the protocol
// starts ("some user j is elected to sign h(M(D₀)‖0) and send it to
// the server").
type InitState struct {
	Signer sig.UserID
	Sig    sig.Signature
}

// Initialize produces the initial signed state for a database root.
func Initialize(s *sig.Signer, initialRoot digest.Digest) InitState {
	return InitState{Signer: s.ID(), Sig: s.Sign(core.StateHash(initialRoot, 0))}
}

// Server is the (honest) Protocol I server state machine.
//
// Server is safe for concurrent use. The ordered section under mu is
// minimal — the ack-pending gate, the database transition, and the
// capture of the presented signed state; VO pruning and answer
// encoding run after the lock is released. Protocol I remains
// logically blocking regardless (no new operation is admitted until
// the previous operation's ack lands), so concurrency here buys
// pipelining of the crypto, not operation overlap — that is Protocol
// II's contribution.
type Server struct {
	mu       sync.Mutex
	db       *vdb.DB
	lastUser sig.UserID
	lastSig  sig.Signature
	ackDue   bool
}

// NewServer wraps db with Protocol I bookkeeping. init must be the
// elected user's signature over the db's current (initial) state.
func NewServer(db *vdb.DB, init InitState) *Server {
	return &Server{db: db, lastUser: init.Signer, lastSig: init.Sig}
}

// DB exposes the underlying database (used by adversaries that wrap an
// honest core, and by the content store glue).
func (s *Server) DB() *vdb.DB { return s.db }

// Fork returns an independent copy of the server sharing history up to
// now — the primitive behind the Figure 1 partition attack. Honest
// servers never call this; internal/adversary does.
func (s *Server) Fork() *Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Server{db: s.db.Fork(), lastUser: s.lastUser, lastSig: s.lastSig, ackDue: s.ackDue}
}

// HandleOp applies the user's operation and returns the Protocol I
// response. The server then blocks (refuses further ops) until
// HandleAck delivers the user's signature over the new state.
func (s *Server) HandleOp(req *core.OpRequest) (*core.OpResponseI, error) {
	// Ordered section: the ack gate, the transition, and the signed
	// pre-state capture must be one atomic step — the presented
	// (Signer, Sig) pair certifies exactly this operation's pre-state.
	s.mu.Lock()
	if s.ackDue {
		s.mu.Unlock()
		return nil, ErrAckPending
	}
	st, err := s.db.Begin(req.Op)
	if err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("proto1: apply: %w", err)
	}
	s.ackDue = true
	signer, lastSig := s.lastUser, s.lastSig
	s.mu.Unlock()

	ans, vo, err := st.Finish()
	if err != nil {
		return nil, fmt.Errorf("proto1: encode: %w", err)
	}
	return &core.OpResponseI{
		Answer: ans,
		VO:     vo,
		Ctr:    st.PreCtr(),
		Signer: signer,
		Sig:    lastSig,
	}, nil
}

// HandleAck stores the user's signature over the new state; the next
// operation's response will present it.
func (s *Server) HandleAck(ack *core.AckRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ackDue {
		return ErrNoAckDue
	}
	s.lastUser = ack.User
	// ack.Sig is a window onto the request's frame, which the
	// connection reuses for its next request.
	s.lastSig = append(sig.Signature(nil), ack.Sig...)
	s.ackDue = false
	return nil
}

// User is the Protocol I user state machine. Its persistent state is
// the pair (lctrᵢ, gctrᵢ) plus the signing key — constant size, per
// desideratum 5. An optional bounded journal (EnableJournal) supports
// post-detection fault localization via internal/forensics.
type User struct {
	signer    *sig.Signer
	ring      *sig.Ring
	k         uint64
	lctr      uint64
	gctr      uint64
	sinceSync uint64
	journal   *forensics.Journal
	lastRoot  digest.Digest
	// verifier is the memory every response is verified in; between
	// responses it holds no pointer into any of them (vdb.Verifier).
	verifier vdb.Verifier
}

// EnableJournal attaches a bounded transition journal of the given
// capacity for fault localization (the paper's future work item 1).
func (u *User) EnableJournal(cap int) {
	u.journal = forensics.NewJournal(u.ID(), cap)
}

// Journal returns the user's transition journal (nil if not enabled).
func (u *User) Journal() *forensics.Journal { return u.journal }

// NewUser creates the user state machine. k is the synchronization
// period: the first user to complete k operations since the last sync
// announces a sync-up.
func NewUser(signer *sig.Signer, ring *sig.Ring, k uint64) *User {
	if k == 0 {
		panic("proto1: sync period k must be positive")
	}
	return &User{signer: signer, ring: ring, k: k}
}

// ID returns the user's identity.
func (u *User) ID() sig.UserID { return u.signer.ID() }

// LCtr returns lctrᵢ, the user's completed-operation count.
func (u *User) LCtr() uint64 { return u.lctr }

// VerifiedRoot returns the (ctr, root) pair this user most recently
// verified through a VO, for cross-checking against witness
// commitments. Zero (0, Zero) before any operation.
func (u *User) VerifiedRoot() (uint64, digest.Digest) {
	return u.gctr, u.lastRoot
}

// Request builds the operation request for op.
func (u *User) Request(op vdb.Op) *core.OpRequest {
	return &core.OpRequest{User: u.ID(), Op: op}
}

// HandleResponse verifies the server's reply to op. On success it
// returns the decoded answer and the ack the driver must send to the
// server; on deviation it returns a *core.DetectionError.
func (u *User) HandleResponse(op vdb.Op, resp *core.OpResponseI) (*core.AckRequest, any, error) {
	if resp == nil || resp.VO == nil {
		return nil, nil, core.Detect(core.ProtocolViolation, u.ID(), u.lctr, errors.New("missing response or VO"))
	}
	oldRoot, newRoot, err := u.verifier.VerifyDerive(op, resp.Answer, resp.VO)
	if err != nil {
		return nil, nil, core.Detect(classify(err), u.ID(), u.lctr, err)
	}
	// Step 4: verify that sig is legitimate — the named user's
	// signature over h(M(D)‖ctr) for the VO-derived M(D).
	if err := u.ring.Verify(resp.Signer, core.StateHash(oldRoot, resp.Ctr), resp.Sig); err != nil {
		return nil, nil, core.Detect(core.BadSignature, u.ID(), u.lctr, err)
	}
	u.lctr++
	u.gctr = resp.Ctr + 1
	u.sinceSync++
	u.lastRoot = newRoot
	if u.journal != nil {
		u.journal.Record(resp.Ctr+1, core.StateHash(oldRoot, resp.Ctr), core.StateHash(newRoot, resp.Ctr+1))
	}
	ack := &core.AckRequest{
		User: u.ID(),
		Sig:  u.signer.Sign(core.StateHash(newRoot, resp.Ctr+1)),
	}
	ans, err := vdb.DecodeAnswer(resp.Answer)
	if err != nil {
		return nil, nil, core.Detect(core.ProtocolViolation, u.ID(), u.lctr, err)
	}
	return ack, ans, nil
}

// NeedsSync reports whether this user has completed k operations since
// the last synchronization and must announce a sync-up.
func (u *User) NeedsSync() bool { return u.sinceSync >= u.k }

// SyncReport is the user's broadcast contribution to a sync round.
func (u *User) SyncReport() core.SyncReportI {
	return core.SyncReportI{User: u.ID(), LCtr: u.lctr, GCtr: u.gctr}
}

// CompleteSync evaluates a full set of sync reports (one per user).
// It fails with a SyncMismatch detection if no user's gctr matches the
// total operation count.
func (u *User) CompleteSync(reports []core.SyncReportI) error {
	if core.CheckSyncI(reports) < 0 {
		return core.Detect(core.SyncMismatch, u.ID(), u.lctr,
			fmt.Errorf("no gctr matches the %d total operations", totalLCtr(reports)))
	}
	u.sinceSync = 0
	return nil
}

func totalLCtr(reports []core.SyncReportI) uint64 {
	var t uint64
	for _, r := range reports {
		t += r.LCtr
	}
	return t
}

// classify maps verification failures to detection classes.
func classify(err error) core.DetectionClass {
	if errors.Is(err, vdb.ErrAnswerMismatch) {
		return core.BadAnswer
	}
	return core.BadVO
}
