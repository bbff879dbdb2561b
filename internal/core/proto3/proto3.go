// Package proto3 implements Protocol III of the Trusted CVS paper
// (Section 4.4): bounded-time deviation detection with NO external
// communication, for workloads where every user performs at least two
// operations per epoch (t time units).
//
// Users keep the Protocol II registers, reset σ at each epoch
// boundary, and use the server itself as the broadcast medium: with
// the second operation of each new epoch a user uploads a *signed*
// summary of its previous-epoch registers. In epoch e+2 a designated
// user downloads everyone's epoch-e summaries (unforgeable, so the
// server can only withhold them — which is itself detected) and runs
// the Protocol II synchronization check for epoch e. A deviation in
// epoch e is therefore detected by the end of epoch e+2 — within two
// epochs of the end of e (Theorem 4.3).
package proto3

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

// Server is the (honest) Protocol III server state machine: Protocol
// II's, plus the epoch counter and the stored epoch backups.
//
// Server is safe for concurrent use: the ordered section under mu
// covers backup storage, the database transition, and the
// (last-user, epoch) capture; VO pruning and answer encoding run
// outside it. The epoch ticker (AdvanceEpoch runs from a timer
// goroutine in the live server) shares the same mutex, which is what
// makes an operation observe one consistent epoch.
type Server struct {
	mu       sync.Mutex
	db       *vdb.DB
	lastUser sig.UserID
	epoch    uint64
	backups  map[uint64]map[sig.UserID]*core.EpochBackup
}

// NewServer wraps db with Protocol III bookkeeping. Epochs start at 0.
func NewServer(db *vdb.DB) *Server {
	return &Server{
		db:       db,
		lastUser: sig.GenesisID,
		backups:  make(map[uint64]map[sig.UserID]*core.EpochBackup),
	}
}

// DB exposes the underlying database.
func (s *Server) DB() *vdb.DB { return s.db }

// Fork returns an independent copy of the server sharing history up to
// now — the primitive behind the Figure 1 partition attack. Stored
// backups are shared by copy (they are immutable once stored).
func (s *Server) Fork() *Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &Server{
		db:       s.db.Fork(),
		lastUser: s.lastUser,
		epoch:    s.epoch,
		backups:  make(map[uint64]map[sig.UserID]*core.EpochBackup, len(s.backups)),
	}
	for e, m := range s.backups {
		nm := make(map[sig.UserID]*core.EpochBackup, len(m))
		for id, b := range m {
			nm[id] = b
		}
		f.backups[e] = nm
	}
	return f
}

// Epoch returns the server's current epoch.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// AdvanceEpoch moves the server into the next epoch. The driver calls
// it every t time units (sim: every epochLen rounds; live: a timer).
func (s *Server) AdvanceEpoch() {
	s.mu.Lock()
	s.epoch++
	s.mu.Unlock()
}

// HandleOp applies the operation, stores any piggybacked epoch backup,
// and returns (answer, VO, ctr, j, epoch).
func (s *Server) HandleOp(req *core.OpRequest) (*core.OpResponseII, error) {
	// Ordered section: backup storage rides on the operation's position
	// in the order (the paper's "second operation of a new epoch"
	// upload), and (last, epoch) must be captured atomically with the
	// transition.
	s.mu.Lock()
	if req.Backup != nil {
		s.storeBackup(req.Backup)
	}
	st, err := s.db.Begin(req.Op)
	if err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("proto3: apply: %w", err)
	}
	last, epoch := s.lastUser, s.epoch
	s.lastUser = req.User
	s.mu.Unlock()

	ans, vo, err := st.Finish()
	if err != nil {
		return nil, fmt.Errorf("proto3: encode: %w", err)
	}
	return &core.OpResponseII{
		Answer: ans,
		VO:     vo,
		Ctr:    st.PreCtr(),
		Last:   last,
		Epoch:  epoch,
	}, nil
}

func (s *Server) storeBackup(b *core.EpochBackup) {
	m := s.backups[b.Epoch]
	if m == nil {
		m = make(map[sig.UserID]*core.EpochBackup)
		s.backups[b.Epoch] = m
	}
	m[b.User] = b
}

// HandleGetBackups returns the stored backups for one epoch, in user
// order. Stored backups are immutable, so sharing the pointers with
// the response is safe.
func (s *Server) HandleGetBackups(req *core.GetBackupsRequest) *core.BackupsResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.backups[req.Epoch]
	resp := &core.BackupsResponse{Epoch: req.Epoch}
	ids := make([]sig.UserID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		resp.Backups = append(resp.Backups, m[id])
	}
	return resp
}

// Outcome is what a verified Protocol III response yields: the decoded
// answer, plus — when this user just learned of a new epoch and is the
// designated checker — the epoch whose stored summaries it must now
// verify (fetch backups for CheckEpoch and CheckEpoch−1 and call
// CompleteEpochCheck).
type Outcome struct {
	Answer     any
	CheckEpoch *uint64
}

// User is the Protocol III user state machine.
type User struct {
	signer       *sig.Signer
	ring         *sig.Ring
	users        []sig.UserID // full membership, for backup completeness and checker rotation
	regs         core.Registers
	initialState digest.Digest
	epoch        uint64
	epochKnown   bool // has the user seen any epoch announcement yet
	pending      *core.EpochBackup
	checkedUpTo  uint64 // epochs below this have been checked (by this user when designated)
	// LocalEpoch, when set, is the user's own clock estimate of the
	// current epoch (from its partially synchronous local clock). A
	// server whose epoch announcements drift more than one epoch from
	// it is detected. Nil disables the check.
	LocalEpoch func() uint64
	journal    *forensics.Journal
	head       vdb.Head // the post-state of the last verified response
	// verifier is the memory every response is verified in; between
	// responses it holds no pointer into any of them (vdb.Verifier).
	verifier vdb.Verifier
}

// EnableJournal attaches a bounded transition journal of the given
// capacity for fault localization, exactly as in Protocol II — the
// register algebra the journal replays is shared, so forensic reports
// work unchanged under the epoch protocol.
func (u *User) EnableJournal(cap int) {
	u.journal = forensics.NewJournal(u.ID(), cap)
}

// Journal returns the user's transition journal (nil if not enabled).
func (u *User) Journal() *forensics.Journal { return u.journal }

// VerifiedRoot returns the head this user most recently verified
// through a VO, for cross-checking against witness commitments. The
// zero Head before any operation.
func (u *User) VerifiedRoot() vdb.Head { return u.head }

// NewUser creates the user state machine. initialRoot is M(D₀); users
// is the full (sorted) membership.
func NewUser(signer *sig.Signer, ring *sig.Ring, initialRoot digest.Digest) *User {
	g := core.GenesisState(initialRoot)
	u := &User{
		signer:       signer,
		ring:         ring,
		users:        ring.Users(),
		initialState: g,
	}
	u.regs.Last = g
	return u
}

// ID returns the user's identity.
func (u *User) ID() sig.UserID { return u.signer.ID() }

// LCtr returns lctrᵢ.
func (u *User) LCtr() uint64 { return u.regs.Ops }

// Epoch returns the user's current epoch.
func (u *User) Epoch() uint64 { return u.epoch }

// Request builds the operation request for op, piggybacking the
// previous epoch's signed backup if one is waiting (this is the
// "second operation in a new epoch" upload of the paper).
func (u *User) Request(op vdb.Op) *core.OpRequest {
	req := &core.OpRequest{User: u.ID(), Op: op}
	if u.pending != nil {
		req.Backup = u.pending
		u.pending = nil
	}
	return req
}

// BackupsRequest builds the fetch request a designated checker sends.
func (u *User) BackupsRequest(epoch uint64) *core.GetBackupsRequest {
	return &core.GetBackupsRequest{User: u.ID(), Epoch: epoch}
}

// checkerFor reports which user is designated to check epoch e.
func (u *User) checkerFor(e uint64) sig.UserID {
	return u.users[int(e%uint64(len(u.users)))]
}

// HandleResponse verifies the server's reply to op (exactly as in
// Protocol II), manages epoch transitions, and reports checker duty.
func (u *User) HandleResponse(op vdb.Op, resp *core.OpResponseII) (Outcome, error) {
	var out Outcome
	if resp == nil || resp.VO == nil {
		return out, core.Detect(core.ProtocolViolation, u.ID(), u.regs.Ops, errors.New("missing response or VO"))
	}
	if resp.Ctr < u.regs.GCtr {
		return out, core.Detect(core.CounterReplay, u.ID(), u.regs.Ops,
			fmt.Errorf("server presented ctr %d after gctr %d", resp.Ctr, u.regs.GCtr))
	}
	// Epoch sanity: announcements must be monotone and, when the user
	// has a local clock, within one epoch of its own estimate (the
	// p-partial-synchrony assumption makes larger drift impossible for
	// an honest server).
	if u.epochKnown && resp.Epoch < u.epoch {
		return out, core.Detect(core.EpochViolation, u.ID(), u.regs.Ops,
			fmt.Errorf("server epoch went backwards: %d after %d", resp.Epoch, u.epoch))
	}
	if u.LocalEpoch != nil {
		local := u.LocalEpoch()
		if delta(resp.Epoch, local) > 1 {
			return out, core.Detect(core.EpochViolation, u.ID(), u.regs.Ops,
				fmt.Errorf("server epoch %d vs local estimate %d", resp.Epoch, local))
		}
	}
	v, err := u.verifier.VerifyDerive(op, resp.Answer, resp.VO)
	if err != nil {
		return out, core.Detect(classify(err), u.ID(), u.regs.Ops, err)
	}

	if !u.epochKnown {
		u.epochKnown = true
		u.epoch = resp.Epoch
		u.checkedUpTo = initialCheckedUpTo(resp.Epoch)
	} else if resp.Epoch > u.epoch {
		// First operation of a new epoch: snapshot and sign the
		// finished epoch's registers (uploaded with the next request),
		// then reset σ for the new epoch.
		b := &core.EpochBackup{
			User:    u.ID(),
			Epoch:   u.epoch,
			Sigma:   u.regs.Sigma,
			Last:    u.regs.Last,
			LastCtr: u.regs.LastCtr,
		}
		b.Sig = u.signer.Sign(core.EpochSummaryHash(b.User, b.Epoch, b.Sigma, b.Last, b.LastCtr))
		u.pending = b
		u.regs.ResetEpoch()
		u.epoch = resp.Epoch
	}

	// Checker duty: on entering epoch e+2, the designated user audits
	// epoch e.
	if u.epoch >= 2 {
		e := u.epoch - 2
		if e >= u.checkedUpTo && u.checkerFor(e) == u.ID() {
			out.CheckEpoch = &e
		}
	}

	oldState, newState := u.regs.Absorb(v, resp.Ctr, resp.Last, u.ID())
	if u.journal != nil {
		u.journal.Record(resp.Ctr+1, oldState, newState)
	}
	u.head = v.At(resp.Ctr + 1)

	out.Answer, err = v.Answer()
	if err != nil {
		return Outcome{}, core.Detect(core.ProtocolViolation, u.ID(), u.regs.Ops, err)
	}
	return out, nil
}

// initialCheckedUpTo: a user that joins at epoch E cannot audit epochs
// that ended before it saw any state; it takes over duties from E on.
func initialCheckedUpTo(epoch uint64) uint64 {
	if epoch >= 2 {
		return epoch - 1
	}
	return 0
}

// CompleteEpochCheck runs the designated user's audit of epoch e.
// prev is the server's response for epoch e−1 (nil when e == 0); cur
// for epoch e. It validates completeness (every user's backup must be
// present — the workload guarantees every user was active) and the
// signatures, derives epoch e's initial state, and runs the Protocol
// II synchronization check over the epoch-e summaries.
func (u *User) CompleteEpochCheck(e uint64, prev, cur *core.BackupsResponse) error {
	fail := func(class core.DetectionClass, err error) error {
		return core.Detect(class, u.ID(), u.regs.Ops, err)
	}
	curBackups, err := u.validateBackups(e, cur)
	if err != nil {
		return fail(core.EpochViolation, err)
	}
	var initial digest.Digest
	if e == 0 {
		initial = u.initialState
	} else {
		prevBackups, err := u.validateBackups(e-1, prev)
		if err != nil {
			return fail(core.EpochViolation, err)
		}
		initial = finalState(prevBackups, u.initialState)
	}
	reports := make([]core.SyncReportII, 0, len(curBackups))
	for _, b := range curBackups {
		reports = append(reports, core.SyncReportII{User: b.User, Sigma: b.Sigma, Last: b.Last})
	}
	if core.CheckSyncII(initial, reports) < 0 {
		return fail(core.SyncMismatch, fmt.Errorf("epoch %d summaries do not form a single chain", e))
	}
	if e >= u.checkedUpTo {
		u.checkedUpTo = e + 1
	}
	return nil
}

// validateBackups checks one epoch's backup set: right epoch, every
// user present exactly once, every signature valid.
func (u *User) validateBackups(e uint64, resp *core.BackupsResponse) ([]*core.EpochBackup, error) {
	if resp == nil {
		return nil, fmt.Errorf("no backups response for epoch %d", e)
	}
	seen := make(map[sig.UserID]bool, len(resp.Backups))
	for _, b := range resp.Backups {
		if b == nil {
			return nil, fmt.Errorf("nil backup in epoch %d", e)
		}
		if b.Epoch != e {
			return nil, fmt.Errorf("backup for epoch %d in epoch %d response", b.Epoch, e)
		}
		if seen[b.User] {
			return nil, fmt.Errorf("duplicate backup from %v for epoch %d", b.User, e)
		}
		if err := b.Verify(u.ring); err != nil {
			return nil, fmt.Errorf("epoch %d backup from %v: %w", e, b.User, err)
		}
		seen[b.User] = true
	}
	for _, id := range u.users {
		if !seen[id] {
			return nil, fmt.Errorf("epoch %d backup from %v missing (withheld or never performed)", e, id)
		}
	}
	return resp.Backups, nil
}

// finalState picks the chain-final state of an epoch from its backup
// set: the last register with the highest counter. With no operations
// at all it falls back to the genesis state.
func finalState(backups []*core.EpochBackup, genesis digest.Digest) digest.Digest {
	final := genesis
	var best uint64
	for _, b := range backups {
		if b.LastCtr >= best && b.LastCtr > 0 {
			best = b.LastCtr
			final = b.Last
		}
	}
	return final
}

func delta(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func classify(err error) core.DetectionClass {
	if errors.Is(err, vdb.ErrAnswerMismatch) {
		return core.BadAnswer
	}
	return core.BadVO
}
