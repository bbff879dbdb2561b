// Package audit implements the epoch-batched asynchronous auditor of
// Protocol II: the optimistic half of an optimistic/audit split in
// which the server's answer is returned to the caller immediately and
// every verification obligation — VO replay, register fold, counter
// checks, the sync closure check, and the witness quorum cross-check —
// moves onto a background goroutine that consumes a bounded queue of
// (op, response) records.
//
// # Detection bound
//
// The synchronous driver detects a deviation before the next operation
// starts. The auditor weakens this to *within one epoch*: global
// operation counters are divided into fixed windows of N counters
// (epoch e covers counters eN+1 .. (e+1)N), and the paper's sync-up
// closure check (Lemma 4.1) runs once per window instead of once per
// round. This is exactly the paper's k-bounded deviation knob: the
// effective k becomes the epoch length N, measured in *global*
// operations rather than per-user ones.
//
// # Consistent cuts without a barrier
//
// The lock-step barrier made register reports a consistent cut by
// stopping the world. The auditor gets the same cut from the counters
// themselves: each client's records arrive in its own operation order
// with strictly increasing global counters, so when the audit stream
// first crosses an epoch boundary the registers at that instant are
// precisely this client's contribution to the prefix of the global
// history ending at the boundary. Every client snapshots at the same
// counter prefix, so the assembled report vector is a cut of the
// global order — no barrier, no false alarms.
//
// A client that stops operating never crosses another boundary; its
// Seal broadcast publishes its final registers, which stand in for
// every epoch past the last one it crossed (it performed no operations
// there, so the snapshot is unchanged). When every client has sealed,
// one final closure check authenticates the tail window, giving full
// shutdown coverage.
//
// # Backpressure
//
// Submit never drops a record. While the bounded queue has room the
// hot path pays one channel send; when it is full the submitter blocks
// until the auditor catches up — throughput degrades to the audit
// rate, which is the synchronous mode's rate. The degradation count
// and queue high-water mark are exported via Stats. Backpressure never
// moves the admission gate: however full the queue, WaitAdmissible
// admits at most one epoch ahead of the audit.
package audit

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wal"
	"trustedcvs/internal/witness"
)

// DefaultQueue is the bounded queue capacity when Config.Queue is 0.
const DefaultQueue = 256

// Record is one audit obligation: the operation a client issued and
// the response the server returned for it, queued in the client's own
// operation order.
type Record struct {
	Op   vdb.Op
	Resp *core.OpResponseII

	seal bool
}

// Report is one client's register snapshot for one epoch boundary,
// broadcast to every peer. A Seal report carries the client's final
// registers and stands in for every epoch past the last one the
// client crossed.
type Report struct {
	// Epoch is the 0-based epoch the snapshot closes (ignored for
	// seals).
	Epoch uint64
	// Seal marks the client's final report: it has stopped operating.
	Seal bool
	// Retract withdraws this client's earlier seal: it crashed with a
	// seal in flight (or already published) and has resumed operating
	// from its journal, so the old "final" registers are final no more.
	// The hub's FIFO total order makes the retraction land after the
	// stale seal and before any report of the client's new life, at
	// every subscriber alike. Only the snapshot's User field is used.
	Retract bool
	// Report is the register snapshot itself.
	Report core.SyncReportII
}

// Config parameterizes an Auditor.
type Config struct {
	// User is the Protocol II state machine to audit with. The auditor
	// goroutine owns it exclusively from Start on; the hot path may only
	// call its immutable accessors (ID, Request).
	User *proto2.User
	// Epoch is the epoch length N in global operation counters
	// (required: > 0). Detection latency is bounded by one epoch.
	Epoch uint64
	// Users is the client population (required: > 0); epoch closure
	// needs a report from every one of them.
	Users int
	// Queue is the bounded queue capacity (0 = DefaultQueue).
	Queue int
	// Publish broadcasts one of this client's own epoch reports to all
	// peers, this client included (the driver wires it to the broadcast
	// hub, whose FIFO loopback delivers it back through SubmitReport).
	Publish func(Report) error
	// WALDir, when non-empty, arms the crash-durable pipeline: every
	// record is checksummed and fsynced to a segmented journal in this
	// directory before Submit returns, journal frames surviving a crash
	// are re-verified on restart, and journal I/O failure degrades to
	// per-op synchronous audit. See durable.go. When restarting, pass a
	// User restored from LoadCursor's state so replay re-verifies from
	// the right cut.
	WALDir string
	// WALFS is the filesystem the journal writes through (nil =
	// durable.OS); tests interpose fault.FaultyFS crash schedules here.
	WALFS durable.FS
}

// Auditor drains a bounded queue of Records on a background goroutine,
// verifying each against the user state machine, snapshotting register
// reports at epoch boundaries, assembling the peers' reports, and
// running the closure and witness checks once per epoch. The first
// failure is terminal and is surfaced as an *EpochAuditFailure.
type Auditor struct {
	user  *proto2.User
	id    sig.UserID
	epoch uint64
	users int

	initialState digest.Digest

	publish func(Report) error

	ch   chan Record
	done chan struct{}
	wg   sync.WaitGroup

	// emitted is the highest epoch this client's own boundary report
	// was published for; worker-goroutine state, unlocked by design.
	emitted int64

	// Gate state below is guarded by mu (cond is tied to mu); lockscope
	// keeps slow calls (codec, crypto, network, disk) out of its
	// sections like any other hot-path lock. The completion path
	// (SubmitReport → tryCompleteLocked) runs on the driver's single
	// receive goroutine, so epochs complete strictly in order.
	mu   sync.Mutex
	cond *sync.Cond

	check      *witness.Check
	quarantine func()

	failed    error
	closed    bool
	sealSent  bool
	finalDone bool

	maxEpoch  int64 // highest epoch any of this client's ops landed in
	completed int64 // highest epoch whose closure check passed

	reports map[uint64]map[sig.UserID]core.SyncReportII
	seals   map[sig.UserID]core.SyncReportII

	submitted uint64
	audited   uint64
	batches   uint64
	maxBatch  int
	highWater int
	degraded  uint64
	noQuorum  uint64
	// chainHits/chainMisses mirror user.ChainStats as of the last
	// audited batch; the worker publishes them so Stats never reads
	// the user state machine it is mutating.
	chainHits, chainMisses uint64

	// Durability state (durable.go). degradedSync, recovering, walErr,
	// and replayed are gate-guarded; recBuf belongs to Submit's
	// (serialized) callers; the rest is worker-owned (cuts, sealState,
	// lastCkpt) or set once before the worker starts.
	wal          *wal.WAL
	recBuf       []byte
	walDir       string
	walFS        durable.FS
	walErr       error
	degradedSync bool
	recovering   bool
	replayed     uint64
	replayQ      []Record
	retract      bool
	lastCkpt     int64
	cuts         map[uint64][]byte
	sealState    []byte
}

// New builds an Auditor and starts its background goroutine.
func New(cfg Config) (*Auditor, error) {
	if cfg.User == nil {
		return nil, errors.New("audit: Config.User is required")
	}
	if cfg.Epoch == 0 {
		return nil, errors.New("audit: Config.Epoch must be positive")
	}
	if cfg.Users <= 0 {
		return nil, errors.New("audit: Config.Users must be positive")
	}
	if cfg.Publish == nil {
		return nil, errors.New("audit: Config.Publish is required")
	}
	q := cfg.Queue
	if q <= 0 {
		q = DefaultQueue
	}
	a := &Auditor{
		user:         cfg.User,
		id:           cfg.User.ID(),
		epoch:        cfg.Epoch,
		users:        cfg.Users,
		initialState: cfg.User.InitialState(),
		publish:      cfg.Publish,
		//lint:ignore boundedqueue capacity is Config.Queue (default DefaultQueue), a fixed config bound; when full, Submit degrades the caller to the audit rate instead of growing
		ch:        make(chan Record, q),
		done:      make(chan struct{}),
		emitted:   -1,
		maxEpoch:  -1,
		completed: -1,
		lastCkpt:  -1,
		reports:   make(map[uint64]map[sig.UserID]core.SyncReportII),
		seals:     make(map[sig.UserID]core.SyncReportII),
	}
	a.cond = sync.NewCond(&a.mu)
	a.user.EnableReplayChain()
	if cfg.WALDir != "" {
		if err := a.initDurable(cfg.WALDir, cfg.WALFS); err != nil {
			return nil, err
		}
	}
	a.wg.Add(1)
	go a.run()
	if a.recovering {
		a.wg.Add(1)
		go a.feedRecovery()
	}
	return a, nil
}

// SetCheck arms the witness quorum cross-check: it runs once per
// completed epoch, on the auditor, instead of once per sync round on
// the hot path. Set before the first operation.
func (a *Auditor) SetCheck(chk *witness.Check) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.check = chk
}

// SetQuarantine registers a callback invoked (once) when the witness
// check convicts the server, before the failure is recorded — the
// driver uses it to quarantine the convicted endpoint.
func (a *Auditor) SetQuarantine(fn func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.quarantine = fn
}

// epochOf maps a post-operation global counter to its 0-based epoch.
func (a *Auditor) epochOf(g uint64) uint64 {
	if g == 0 {
		return 0
	}
	return (g - 1) / a.epoch
}

// NoteEpoch records the epoch a just-issued operation's claimed
// counter landed in; WaitAdmissible gates the next operation on it.
// The claim is untrusted, but a lie is harmless here: understating it
// trips the auditor's counter checks, overstating it only makes the
// client gate earlier.
func (a *Auditor) NoteEpoch(g uint64) {
	e := int64(a.epochOf(g))
	a.mu.Lock()
	defer a.mu.Unlock()
	if e > a.maxEpoch {
		a.maxEpoch = e
	}
}

// WaitAdmissible blocks while this client is a full epoch ahead of the
// audit: operations in epoch e proceed freely once e-1 has closed, and
// the op that first crosses into e may be issued while e-1 is still
// closing (its own audit is what publishes this client's e-1 boundary
// report, so admission cannot deadlock on it). This bounds the
// optimistic window — and therefore detection latency — to one epoch,
// whatever the queue's occupancy. Returns the terminal failure (or
// ErrClosed) instead of admitting.
func (a *Auditor) WaitAdmissible() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.failed == nil && !a.closed && a.maxEpoch > a.completed+1 {
		a.cond.Wait()
	}
	if a.failed != nil {
		return a.failed
	}
	if a.closed {
		return ErrClosed
	}
	return nil
}

// Submit queues one record for audit, in the client's operation order
// (callers serialize their own Submits; the driver's client lock
// already does). It never drops: when the queue is full it counts a
// degradation and blocks until the auditor catches up (throughput
// falls back to the synchronous rate). With a journal configured the
// record is durable on disk before Submit returns — or, if the
// journal has failed, Submit blocks until the record has actually
// been verified (degrade-to-sync). Returns the terminal failure, if
// any, so the hot path stops issuing promptly.
func (a *Auditor) Submit(rec Record) error {
	a.mu.Lock()
	a.waitRecoveredLocked()
	if a.failed != nil {
		err := a.failed
		a.mu.Unlock()
		return err
	}
	if a.closed {
		a.mu.Unlock()
		return ErrClosed
	}
	syncBarrier := a.degradedSync
	a.mu.Unlock()

	if a.wal != nil && !syncBarrier {
		if err := a.walAppend(rec); err != nil {
			a.noteWALFailure(err)
			syncBarrier = true
		}
	}

	a.mu.Lock()
	if a.failed != nil {
		err := a.failed
		a.mu.Unlock()
		return err
	}
	if a.closed {
		a.mu.Unlock()
		return ErrClosed
	}
	a.submitted++
	occ := len(a.ch) + 1
	if occ > a.highWater {
		a.highWater = occ
	}
	a.mu.Unlock()

	queued := false
	select {
	case a.ch <- rec:
		queued = true
	default:
	}
	if !queued {
		a.mu.Lock()
		a.degraded++
		a.mu.Unlock()
		select {
		case a.ch <- rec:
		case <-a.done:
			return ErrClosed
		}
	}
	if !syncBarrier {
		return nil
	}
	// The record never reached the journal: hold the answer back until
	// it has been verified, restoring the synchronous per-op barrier.
	return a.waitProcessed()
}

// Seal publishes this client's final registers: it has stopped
// operating, and its last snapshot stands in for every later epoch.
// Once all clients have sealed, a final closure check covers the tail
// window. Idempotent.
//
// Sealing is a liveness obligation, not just a shutdown courtesy: a
// client that goes quiet without sealing withholds its boundary
// reports, the open epoch never closes, and peers that have raced one
// epoch ahead stall at WaitAdmissible — exactly as a quiet user stalls
// a sync-barrier round in the underlying protocol.
func (a *Auditor) Seal() {
	a.mu.Lock()
	a.waitRecoveredLocked()
	if a.sealSent || a.closed {
		a.mu.Unlock()
		return
	}
	a.sealSent = true
	a.submitted++
	a.mu.Unlock()
	select {
	case a.ch <- Record{seal: true}:
	case <-a.done:
	}
}

// Err returns the terminal audit failure, if any.
func (a *Auditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.failed
}

// Completed returns the number of epochs whose closure check passed.
func (a *Auditor) Completed() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return uint64(a.completed + 1)
}

// NoQuorumSkips reports how many per-epoch witness checks were skipped
// for lack of a quorum (availability loss, never detection).
func (a *Auditor) NoQuorumSkips() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.noQuorum
}

// Stats is a snapshot of the auditor's counters.
type Stats struct {
	Submitted uint64 // records submitted (seals included)
	Audited   uint64 // records processed by the worker
	Batches   uint64 // worker wake-ups (records drained per wake-up amortize)
	MaxBatch  int    // largest single batch
	QueueCap  int    // configured queue capacity
	HighWater int    // max queue occupancy observed at submit time
	Degraded  uint64 // submits that found the queue full and blocked
	Epochs    uint64 // epochs whose closure check passed
	// ChainHits/ChainMisses: shared-path replays vs full VO
	// verifications.
	ChainHits   uint64
	ChainMisses uint64
	// Durability is the crash-durability mode (volatile / wal /
	// degraded-sync); Replayed counts obligations re-verified from the
	// journal after a restart.
	Durability DurabilityState
	Replayed   uint64
}

// Stats returns a snapshot of the auditor's counters; safe to call
// while the auditor runs. The chain counters are the worker's
// publication as of the last audited batch (the user state machine is
// the worker's alone), so they are exact whenever Audited is.
func (a *Auditor) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	dur := DurabilityVolatile
	switch {
	case a.degradedSync:
		dur = DurabilityDegradedSync
	case a.wal != nil:
		dur = DurabilityWAL
	}
	return Stats{
		Submitted: a.submitted, Audited: a.audited,
		Batches: a.batches, MaxBatch: a.maxBatch,
		QueueCap: cap(a.ch), HighWater: a.highWater, Degraded: a.degraded,
		Epochs:    uint64(a.completed + 1),
		ChainHits: a.chainHits, ChainMisses: a.chainMisses,
		Durability: dur, Replayed: a.replayed,
	}
}

// WaitDrained blocks until every submitted record has been audited (or
// the terminal failure / timeout hits). It does not require seals:
// epochs still open stay open.
func (a *Auditor) WaitDrained(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	poll := backoff.Poll(time.Millisecond)
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.failed == nil && !a.closed && a.audited < a.submitted {
		if time.Now().After(deadline) {
			return errors.New("audit: WaitDrained timeout")
		}
		a.mu.Unlock()
		poll.Sleep()
		a.mu.Lock()
	}
	return a.failed
}

// WaitSealed blocks until the all-sealed final closure check has
// passed (requires every client in the population to have sealed), a
// terminal failure is recorded, or the timeout hits.
func (a *Auditor) WaitSealed(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	poll := backoff.Poll(time.Millisecond)
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.failed == nil && !a.finalDone {
		if time.Now().After(deadline) {
			return errors.New("audit: WaitSealed timeout")
		}
		a.mu.Unlock()
		poll.Sleep()
		a.mu.Lock()
	}
	return a.failed
}

// Stop shuts the auditor down: waiters are released with ErrClosed and
// the worker goroutine exits. Records still queued are not audited —
// call Seal and WaitSealed first for full coverage. Idempotent.
func (a *Auditor) Stop() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
	close(a.done)
	a.wg.Wait()
	a.closeDurable()
}

// run is the worker goroutine: it owns the user state machine.
func (a *Auditor) run() {
	defer a.wg.Done()
	// A restarted client may have a seal from its previous life in the
	// hub log; retract it before anything else this life publishes, so
	// no peer runs the all-sealed closure against the stale cut. (A
	// peer that completes its seal set in the window before the
	// retraction lands is the unavoidable distributed race — the
	// crashed client cannot announce its survival any earlier than its
	// first post-recovery publish.)
	if a.retract {
		a.publishReport(Report{Retract: true, Report: a.user.SyncReport()})
	}
	var obs []witness.Observation
	for {
		var rec Record
		select {
		case <-a.done:
			return
		case rec = <-a.ch:
		}
		// Batch drain: everything already queued is verified in one
		// sweep, amortizing the witness-observation lock and the gate
		// update — and giving the shared-path replay chain consecutive
		// records to chain across.
		batch := []Record{rec}
		for n := len(a.ch); n > 0; n-- {
			batch = append(batch, <-a.ch)
		}
		obs = obs[:0]
		for _, r := range batch {
			a.process(r, &obs)
		}
		a.mu.Lock()
		chk := a.check
		a.mu.Unlock()
		if chk != nil {
			chk.ObserveBatch(obs)
		}
		a.mu.Lock()
		a.audited += uint64(len(batch))
		a.chainHits, a.chainMisses = a.user.ChainStats()
		a.batches++
		if len(batch) > a.maxBatch {
			a.maxBatch = len(batch)
		}
		// Degrade-to-sync submitters block until their record has been
		// audited; wake them per batch.
		a.cond.Broadcast()
		a.mu.Unlock()
		a.maybeCheckpoint(false)
	}
}

// process audits one record: emit boundary snapshots it crosses, then
// verify it against the user state machine.
func (a *Auditor) process(r Record, obs *[]witness.Observation) {
	a.mu.Lock()
	dead := a.failed != nil
	a.mu.Unlock()
	if dead {
		return // keep draining so blocked submitters unblock
	}
	if r.seal {
		a.stashSeal()
		a.publishReport(Report{Seal: true, Report: a.user.SyncReport()})
		return
	}
	g := claimedG(r)
	// First record past a boundary: snapshot BEFORE absorbing it, so
	// the registers cover exactly the counter prefix each boundary
	// names. A client that skipped whole epochs emits one (identical)
	// snapshot per skipped boundary — it performed no operations there.
	e := int64(a.epochOf(g))
	for ep := a.emitted + 1; ep < e; ep++ {
		a.stashCut(uint64(ep))
		a.publishReport(Report{Epoch: uint64(ep), Report: a.user.SyncReport()})
	}
	if e > a.emitted {
		a.emitted = e - 1
	}
	if err := a.user.VerifyResponse(r.Op, r.Resp); err != nil {
		a.fail(&EpochAuditFailure{Epoch: uint64(e), Ctr: g, Cause: err})
		return
	}
	ctr, root := a.user.VerifiedRoot()
	*obs = append(*obs, witness.Observation{Ctr: ctr, Root: root})
}

// publishReport broadcasts one of this client's own reports.
func (a *Auditor) publishReport(r Report) {
	if err := a.publish(r); err != nil {
		a.fail(fmt.Errorf("audit: publish epoch report: %w", err))
	}
}

// SubmitReport feeds one peer report (this client's own loopback
// included) into the epoch assembly. Reports are idempotent — the
// first snapshot per (epoch, user) wins, so hub replays after a
// reconnect cannot corrupt an epoch. Called from the driver's receive
// goroutine.
func (a *Auditor) SubmitReport(r Report) {
	a.mu.Lock()
	defer a.mu.Unlock()
	from := r.Report.User
	if r.Retract {
		// The sender outlived its seal (crash + journal recovery); its
		// stale final registers must not stand in for epochs its new
		// life keeps folding. It will re-seal on its own schedule.
		delete(a.seals, from)
		return
	}
	if r.Seal {
		if _, ok := a.seals[from]; !ok {
			a.seals[from] = r.Report
		}
	} else {
		if int64(r.Epoch) <= a.completed {
			// Already durably closed. A restarted client's fresh hub
			// session replays the entire report history; reports for
			// epochs at or below the recovery cursor would otherwise
			// pile up here forever.
			return
		}
		m := a.reports[r.Epoch]
		if m == nil {
			m = make(map[sig.UserID]core.SyncReportII, a.users)
			a.reports[r.Epoch] = m
		}
		if _, ok := m[from]; !ok {
			m[from] = r.Report
		}
	}
	a.tryCompleteLocked()
}

// tryCompleteLocked completes epochs strictly in order: epoch e closes
// once every user contributed a snapshot — its epoch-e report, or its
// seal (FIFO hub order guarantees a seal arrives after all the epoch
// reports that precede it, and a sealed user's final registers equal
// its snapshot for every later epoch). When the whole population has
// sealed, one final closure check covers the tail window.
func (a *Auditor) tryCompleteLocked() {
	for a.failed == nil {
		if len(a.seals) >= a.users && !a.finalDone {
			reports := make([]core.SyncReportII, 0, a.users)
			for _, r := range a.seals {
				reports = append(reports, r)
			}
			e := uint64(a.completed + 1)
			if err := a.closureCheckLocked(reports); err != nil {
				a.failLocked(&EpochAuditFailure{Epoch: e, Cause: err})
				return
			}
			if err := a.witnessCheckLocked(e); err != nil {
				a.failLocked(err)
				return
			}
			a.finalDone = true
			if a.maxEpoch > a.completed {
				a.completed = a.maxEpoch
			}
			a.reports = make(map[uint64]map[sig.UserID]core.SyncReportII)
			a.cond.Broadcast()
			return
		}
		e := uint64(a.completed + 1)
		m := a.reports[e]
		reports := make([]core.SyncReportII, 0, a.users)
		for _, r := range m {
			reports = append(reports, r)
		}
		for id, r := range a.seals {
			if _, ok := m[id]; !ok {
				reports = append(reports, r)
			}
		}
		if len(reports) < a.users {
			return
		}
		if err := a.closureCheckLocked(reports); err != nil {
			a.failLocked(&EpochAuditFailure{Epoch: e, Cause: err})
			return
		}
		if err := a.witnessCheckLocked(e); err != nil {
			a.failLocked(err)
			return
		}
		a.completed = int64(e)
		delete(a.reports, e)
		a.cond.Broadcast()
	}
}

// closureCheckLocked runs the Lemma 4.1 closure check over one
// assembled snapshot vector.
func (a *Auditor) closureCheckLocked(reports []core.SyncReportII) error {
	if core.CheckSyncII(a.initialState, reports) < 0 {
		return core.Detect(core.SyncMismatch, a.id, a.audited,
			errors.New("no last register closes the state chain"))
	}
	return nil
}

// witnessCheckLocked runs the per-epoch witness quorum cross-check.
// No quorum is availability loss (skip, count); divergence quarantines
// the convicted endpoint and is terminal.
func (a *Auditor) witnessCheckLocked(epoch uint64) error {
	if a.check == nil {
		return nil
	}
	err := a.check.Verify()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, witness.ErrNoQuorum):
		a.noQuorum++
		return nil
	default:
		if a.quarantine != nil {
			a.quarantine()
		}
		return &EpochAuditFailure{
			Epoch: epoch,
			Cause: core.Detect(core.WitnessDivergence, a.id, a.audited, err),
		}
	}
}

// fail records the first terminal failure and wakes every waiter.
func (a *Auditor) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failLocked(err)
}

func (a *Auditor) failLocked(err error) {
	if a.failed == nil {
		a.failed = err
		a.cond.Broadcast()
	}
}
