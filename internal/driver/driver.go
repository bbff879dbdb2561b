// Package driver binds the pure protocol state machines to live
// transports: a Client wraps one user's state machine, a connection to
// the (untrusted) server, and — for Protocols I and II — a broadcast
// channel on which it participates in synchronization rounds.
//
// Client implements cvs.Doer, cvs.ContentDoer and cvs.ContentTransfer,
// so a cvs.Client on top of it is a fully verified CVS client over the
// network whose commits and checkouts are one round trip each: the
// content rides with the verified operation (DoWithContent), and the
// separate transfer (Push, Fetch) remains for what riders do not cover.
//
// Protocol II clients run in one of two audit modes:
//
// In the default synchronous mode, synchronization runs as a barrier:
// from the moment a client learns of a sync round until it has
// evaluated all n reports, it starts no new operations. Combined with
// the broadcast hub's FIFO total order, this realizes the paper's
// "users do not start a new transaction between the sync-up message
// and the broadcast", which is what makes the collected register
// vector a consistent cut of the history, and it detects a deviation
// before the next operation starts.
//
// In epoch-audit mode (NewP2EpochWAL), Do returns as soon as the server
// answers and all verification moves onto a background auditor that
// closes one epoch of N global operations at a time — the consistent
// cut comes from counter prefixes instead of a barrier, and detection
// is guaranteed within one epoch. See the audit package for the bound
// and its derivation.
package driver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"trustedcvs/internal/audit"
	"trustedcvs/internal/binenc"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/witness"
)

// reportMsg carries one user's sync report for one round over the
// broadcast channel.
type reportMsg struct {
	Initiator sig.UserID
	Round     uint64
	ReportI   *core.SyncReportI
	ReportII  *core.SyncReportII
}

// Wire tags of the two report messages (wire.Register); part of the
// wire format.
const (
	wireReportMsg      = 96
	wireEpochReportMsg = 97
)

// The reports inside both messages nest as tag + body, as core
// registered them; an absent one is the nil byte.
func init() {
	wire.Register(wireReportMsg, func(b []byte, m *reportMsg) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(m.Initiator))
		b = binary.AppendUvarint(b, m.Round)
		var one, two any
		if m.ReportI != nil {
			one = *m.ReportI
		}
		if m.ReportII != nil {
			two = *m.ReportII
		}
		b, err := wire.Append(b, one)
		if err != nil {
			return nil, err
		}
		return wire.Append(b, two)
	}, func(r *binenc.Reader) *reportMsg {
		m := &reportMsg{Initiator: sig.UserID(r.Uint32()), Round: r.Uvarint()}
		switch v := wire.Read(r).(type) {
		case nil:
		case core.SyncReportI:
			m.ReportI = &v
		default:
			r.Fail("%T where a Protocol I report belongs", v)
		}
		switch v := wire.Read(r).(type) {
		case nil:
		case core.SyncReportII:
			m.ReportII = &v
		default:
			r.Fail("%T where a Protocol II report belongs", v)
		}
		return m
	})
	wire.Register(wireEpochReportMsg, func(b []byte, m *epochReportMsg) ([]byte, error) {
		b = binary.AppendUvarint(b, m.Report.Epoch)
		b = binenc.AppendBool(b, m.Report.Seal)
		b = binenc.AppendBool(b, m.Report.Retract)
		return wire.Append(b, m.Report.Report)
	}, func(r *binenc.Reader) *epochReportMsg {
		m := new(epochReportMsg)
		m.Report.Epoch, m.Report.Seal, m.Report.Retract = r.Uvarint(), r.Bool(), r.Bool()
		m.Report.Report = wire.ReadAs[core.SyncReportII](r)
		return m
	})
}

type roundKey struct {
	initiator sig.UserID
	round     uint64
}

type roundState struct {
	reportsI  map[sig.UserID]core.SyncReportI
	reportsII map[sig.UserID]core.SyncReportII
	reported  bool // this client has published its own report
}

// Client is one user's live protocol endpoint.
type Client struct {
	proto  server.Protocol
	conn   transport.Caller
	bc     broadcast.Channel
	nUsers int

	mu     sync.Mutex
	cond   *sync.Cond
	u1     *proto1.User
	u2     *proto2.User
	u3     *proto3.User
	id     sig.UserID
	rounds map[roundKey]*roundState
	done   map[sig.UserID]uint64 // last completed round per initiator
	seq    uint64
	busy   bool // sync mode: an operation is between its first request and its last response
	failed error
	closed bool

	check    *witness.Check // nil: no witness cross-check
	noQuorum uint64         // witness checks skipped for lack of quorum

	aud *audit.Auditor // non-nil: epoch-audit mode (NewP2EpochWAL)

	wg sync.WaitGroup
}

// NewP1 builds a Protocol I client. bc must be joined to the same hub
// as every other user; nUsers is the total user population.
func NewP1(user *proto1.User, conn transport.Caller, bc broadcast.Channel, nUsers int) *Client {
	c := newClient(server.P1, conn, bc, nUsers)
	c.u1 = user
	c.id = user.ID()
	c.start()
	return c
}

// NewP2 builds a Protocol II client.
func NewP2(user *proto2.User, conn transport.Caller, bc broadcast.Channel, nUsers int) *Client {
	c := newClient(server.P2, conn, bc, nUsers)
	c.u2 = user
	c.id = user.ID()
	c.start()
	return c
}

// NewP3 builds a Protocol III client. No broadcast channel: epoch
// duties run over the server connection.
func NewP3(user *proto3.User, conn transport.Caller) *Client {
	c := newClient(server.P3, conn, nil, 0)
	c.u3 = user
	c.id = user.ID()
	return c
}

func newClient(p server.Protocol, conn transport.Caller, bc broadcast.Channel, nUsers int) *Client {
	c := &Client{
		proto:  p,
		conn:   conn,
		bc:     bc,
		nUsers: nUsers,
		rounds: make(map[roundKey]*roundState),
		done:   make(map[sig.UserID]uint64),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *Client) start() {
	c.wg.Add(1)
	go c.recvLoop()
}

// ID returns the client's user identity.
func (c *Client) ID() sig.UserID { return c.id }

// SetWitnessCheck arms the witness cross-check: after every verified
// operation the client records the root it derived, and before a sync
// round is acknowledged it compares those roots against the witness
// quorum's signed commitments. A divergence is a detection
// (core.WitnessDivergence) and, when the server connection is a
// multi-endpoint ResilientClient, the convicted endpoint is
// quarantined so retries cannot fail over back onto the fork. Set
// before issuing operations.
func (c *Client) SetWitnessCheck(chk *witness.Check) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.check = chk
	if c.aud != nil {
		// Epoch-audit mode: the quorum check runs on the auditor, once
		// per completed epoch, with the same quarantine-on-conviction
		// behavior the sync barrier has.
		c.aud.SetCheck(chk)
		conn := c.conn
		c.aud.SetQuarantine(func() {
			if rc, ok := conn.(*transport.ResilientClient); ok {
				rc.Quarantine(rc.EndpointName())
			}
		})
	}
}

// NoQuorumSkips reports how many witness checks were skipped because
// too few witnesses answered. Availability loss, not detection — E15
// asserts this stays separate from the false-alarm count.
func (c *Client) NoQuorumSkips() uint64 {
	if c.aud != nil {
		return c.aud.NoQuorumSkips()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.noQuorum
}

// Err returns the recorded detection error, if any. In epoch-audit
// mode a failure the background auditor found is surfaced here too,
// even before the next Do would trip over it.
func (c *Client) Err() error {
	c.mu.Lock()
	failed := c.failed
	c.mu.Unlock()
	if failed == nil && c.aud != nil {
		return c.aud.Err()
	}
	return failed
}

// Journal returns the underlying user's transition journal (nil unless
// enabled on the user before the client was built). Pool journals from
// all users with forensics.Locate after a detection.
func (c *Client) Journal() *forensics.Journal {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.u1 != nil:
		return c.u1.Journal()
	case c.u2 != nil:
		return c.u2.Journal()
	case c.u3 != nil:
		return c.u3.Journal()
	}
	return nil
}

// Close shuts the client down (the broadcast channel and server
// connection are closed).
func (c *Client) Close() error {
	// Stop the auditor before taking mu: its shutdown releases any Do
	// blocked in admission or backpressure, which may hold mu.
	if c.aud != nil {
		c.aud.Stop()
	}
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	if c.bc != nil {
		c.bc.Close()
	}
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

// Do implements cvs.Doer. In synchronous mode it executes one fully
// verified operation, blocking while a synchronization round is in
// flight. In epoch-audit mode it returns the optimistically decoded
// answer as soon as the server replies, blocking only on the
// admission gate (one epoch of pipelining, the detection bound) and
// on audit-queue backpressure.
func (c *Client) Do(op vdb.Op) (any, error) {
	ans, _, err := c.DoWithContent(op, nil, false)
	return ans, err
}

// DoWithContent implements cvs.ContentDoer: Do, with the content of a
// commit's files and/or a request for a checkout's riding in the same
// round trip (all three protocols, both audit modes). The riders never
// reach the user state machine, the audit queue or its journal — those
// see the plain request and response — and the returned riders are
// unverified bytes: cvs.Client checks each against the hash in the
// verified answer, the one place a rider is hashed.
func (c *Client) DoWithContent(op vdb.Op, push [][]byte, want bool) (any, [][]byte, error) {
	if c.aud != nil {
		// Admission first, without mu: the gate is released by the
		// auditor, never by this client's own lock holders.
		if err := c.aud.WaitAdmissible(); err != nil {
			if !errors.Is(err, audit.ErrClosed) {
				c.mirrorAuditFailure(err)
			}
			return nil, nil, err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.failed != nil {
			return nil, nil, c.failed
		}
		if c.closed {
			return nil, nil, errors.New("driver: client closed")
		}
		raw, riders, err := c.exchange(op, push, want)
		if err != nil {
			return nil, nil, err
		}
		ans, err := c.finishEpochLocked(op, raw)
		return ans, riders, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for (len(c.rounds) > 0 || c.busy) && c.failed == nil && !c.closed {
		c.cond.Wait()
	}
	if c.failed != nil {
		return nil, nil, c.failed
	}
	if c.closed {
		return nil, nil, errors.New("driver: client closed")
	}

	// The operation owns the user state machine until it is done; mu
	// itself is released around each server call (see call), so a sync
	// announcement delivered meanwhile registers its round at once —
	// closing the gate above for the next operation — and leaves the
	// report to this one.
	c.busy = true
	var ans any
	raw, riders, err := c.exchange(op, push, want)
	if err == nil {
		ans, err = c.finishOpLocked(op, raw)
	}
	c.busy = false
	c.cond.Broadcast()
	for key, rs := range c.rounds {
		if !rs.reported {
			c.publishOwnReportLocked(key)
		}
	}
	if err != nil {
		// Only detection is terminal. A transport failure (retries
		// exhausted, server restarting) is the caller's to handle: the
		// local state machine has not advanced, so the client remains
		// usable once the network heals. Pinning transport errors here
		// would turn every outage into a spurious permanent failure.
		if _, ok := core.AsDetection(err); ok {
			c.recordFailure(err)
		}
		return nil, nil, err
	}
	c.observeLocked()
	if c.needsSyncLocked() {
		c.seq++
		key := roundKey{c.id, c.seq}
		msg := broadcast.Message{From: c.id, Payload: &core.SyncRequest{From: c.id, Round: c.seq}}
		if err := c.bc.Publish(msg); err != nil {
			return ans, riders, fmt.Errorf("driver: announce sync: %w", err)
		}
		// Register the round and contribute our own report right here,
		// synchronously: the paper's initiator "does not start a new
		// transaction between the sync-up message and the broadcast",
		// and the next Do must block on the open round.
		c.publishOwnReportLocked(key)
	}
	return ans, riders, nil
}

// call sends one request to the server. In synchronous mode mu is
// released for the duration: the receive loop must be able to register
// a delivered sync round while the server works, not race the next
// operation for the mutex afterwards. busy keeps everything else off
// the user state machine meanwhile. In epoch-audit mode nothing on the
// broadcast path wants mu (reports go straight to the auditor), and
// holding it keeps concurrent callers' operations in submission order.
func (c *Client) call(req any) (any, error) {
	if c.aud != nil {
		return c.conn.Call(req)
	}
	c.mu.Unlock()
	resp, err := c.conn.Call(req)
	c.mu.Lock()
	return resp, err
}

// exchange sends the user's request for op and returns the protocol
// server's response. With content riding along (push or want) the
// request travels inside a RiderRequest and the reply is unwrapped
// here, so the riders are stripped before anything is verified,
// folded, queued or journaled; a server that answers with a bare
// response has simply attached nothing.
func (c *Client) exchange(op vdb.Op, push [][]byte, want bool) (raw any, riders [][]byte, err error) {
	if push == nil && !want {
		req := c.requestLocked(op) // escapes on this branch only
		raw, err = c.call(&req)
		return raw, nil, err
	}
	raw, err = c.call(&core.RiderRequest{OpRequest: c.requestLocked(op), Want: want, Blobs: push})
	if rr, ok := raw.(*core.RiderResponse); ok {
		raw, riders = rr.Resp, rr.Blobs
	}
	return raw, riders, err
}

// requestLocked is the user state machine's request for op, by value:
// it travels on its own or embedded in a rider envelope.
func (c *Client) requestLocked(op vdb.Op) core.OpRequest {
	switch c.proto {
	case server.P1:
		return *c.u1.Request(op)
	case server.P3:
		return *c.u3.Request(op)
	}
	return *c.u2.Request(op)
}

// finishOpLocked hands the server's response to op to the user state
// machine and completes the protocol's remaining steps.
func (c *Client) finishOpLocked(op vdb.Op, raw any) (any, error) {
	switch c.proto {
	case server.P1:
		resp, ok := raw.(*core.OpResponseI)
		if !ok {
			return nil, core.Detect(core.ProtocolViolation, c.id, c.u1.LCtr(), fmt.Errorf("bad response type %T", raw))
		}
		ack, ans, err := c.u1.HandleResponse(op, resp)
		if err != nil {
			return nil, err
		}
		if _, err := c.call(ack); err != nil {
			return nil, err
		}
		return ans, nil

	case server.P2:
		resp, ok := raw.(*core.OpResponseII)
		if !ok {
			return nil, core.Detect(core.ProtocolViolation, c.id, c.u2.LCtr(), fmt.Errorf("bad response type %T", raw))
		}
		return c.u2.HandleResponse(op, resp)

	case server.P3:
		resp, ok := raw.(*core.OpResponseII)
		if !ok {
			return nil, core.Detect(core.ProtocolViolation, c.id, c.u3.LCtr(), fmt.Errorf("bad response type %T", raw))
		}
		out, err := c.u3.HandleResponse(op, resp)
		if err != nil {
			return nil, err
		}
		if out.CheckEpoch != nil {
			if err := c.runEpochCheckLocked(*out.CheckEpoch); err != nil {
				return nil, err
			}
		}
		return out.Answer, nil
	}
	return nil, fmt.Errorf("driver: unknown protocol %v", c.proto)
}

func (c *Client) runEpochCheckLocked(e uint64) error {
	var prev *core.BackupsResponse
	if e > 0 {
		raw, err := c.call(c.u3.BackupsRequest(e - 1))
		if err != nil {
			return err
		}
		r, ok := raw.(*core.BackupsResponse)
		if !ok {
			return core.Detect(core.ProtocolViolation, c.id, c.u3.LCtr(), fmt.Errorf("bad backups response %T", raw))
		}
		prev = r
	}
	raw, err := c.call(c.u3.BackupsRequest(e))
	if err != nil {
		return err
	}
	cur, ok := raw.(*core.BackupsResponse)
	if !ok {
		return core.Detect(core.ProtocolViolation, c.id, c.u3.LCtr(), fmt.Errorf("bad backups response %T", raw))
	}
	return c.u3.CompleteEpochCheck(e, prev, cur)
}

// observeLocked records the root the local state machine just
// verified, so the next witness check can compare it against what the
// witnesses hold for the same counter.
func (c *Client) observeLocked() {
	if c.check == nil {
		return
	}
	switch c.proto {
	case server.P1:
		c.check.Observe(c.u1.VerifiedRoot())
	case server.P2:
		c.check.Observe(c.u2.VerifiedRoot())
	case server.P3:
		c.check.Observe(c.u3.VerifiedRoot())
	}
}

func (c *Client) lctrLocked() uint64 {
	switch c.proto {
	case server.P1:
		return c.u1.LCtr()
	case server.P2:
		return c.u2.LCtr()
	case server.P3:
		return c.u3.LCtr()
	}
	return 0
}

// verifyWitnessLocked cross-checks the roots this client verified
// against the witness quorum's signed commitments. It runs with mu
// held, *before* the sync round is acknowledged, so no new operation
// ever starts on top of a root the witnesses contradict.
func (c *Client) verifyWitnessLocked() error {
	if c.check == nil {
		return nil
	}
	err := c.check.Verify()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, witness.ErrNoQuorum):
		// Too few witnesses answered. That is availability loss, never
		// detection — conflating the two is exactly how benign failover
		// turns into false alarms. Skip, count, proceed.
		c.noQuorum++
		return nil
	default:
		// Divergence, with verified evidence in c.check.Evidence().
		// Quarantine the convicted endpoint first so retries cannot
		// fail back over onto the fork, then terminate.
		if rc, ok := c.conn.(*transport.ResilientClient); ok {
			rc.Quarantine(rc.EndpointName())
		}
		return core.Detect(core.WitnessDivergence, c.id, c.lctrLocked(), err)
	}
}

// VerifyWitnesses runs the witness cross-check immediately. Protocol
// III clients have no sync rounds to piggyback on, so callers invoke
// this at the cadence they want (per batch, per epoch). Divergence is
// recorded as a terminal detection like any other.
func (c *Client) VerifyWitnesses() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return c.failed
	}
	if err := c.verifyWitnessLocked(); err != nil {
		c.recordFailure(err)
		return err
	}
	return nil
}

func (c *Client) needsSyncLocked() bool {
	switch c.proto {
	case server.P1:
		return c.u1.NeedsSync()
	case server.P2:
		return c.u2.NeedsSync()
	}
	return false
}

// recvLoop processes broadcast traffic: sync announcements and
// reports.
func (c *Client) recvLoop() {
	defer c.wg.Done()
	for msg := range c.bc.Recv() {
		switch p := msg.Payload.(type) {
		case *core.SyncRequest:
			c.onSyncRequest(roundKey{p.From, p.Round})
		case *reportMsg:
			c.onReport(p)
		case *epochReportMsg:
			// Straight to the auditor, never touching c.mu: epoch
			// assembly must make progress while a Do holds the client
			// lock across a server call.
			if c.aud != nil {
				//lint:ignore verifyflow the hub is the paper's assumed user-only reliable channel (Theorem 3.1 external communication; broadcast package doc) — the untrusted server never sees it, and the auditor's closure check is itself the verifier these reports feed
				c.aud.SubmitReport(p.Report)
			}
		}
	}
	// Channel closed: wake any waiter so Close can finish.
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *Client) onSyncRequest(key roundKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.roundDoneLocked(key) {
		return
	}
	c.publishOwnReportLocked(key)
}

// roundDoneLocked reports whether key names a round this client has
// already completed. Reconnecting broadcast members can observe stale
// sync traffic (a replayed announcement, a straggler report from a
// slow peer); reopening a finished round would publish a *fresh*
// register snapshot into it and manufacture a false mismatch.
func (c *Client) roundDoneLocked(key roundKey) bool {
	return key.round <= c.done[key.initiator]
}

// publishOwnReportLocked registers the round and, once, snapshots this
// user's registers for it and broadcasts them. Registers are only ever
// snapshotted between operations: while one is in flight the round is
// registered — which is what stops the next operation — and the report
// is left to that operation, which publishes it on its way out of Do.
func (c *Client) publishOwnReportLocked(key roundKey) {
	rs := c.roundLocked(key)
	if rs.reported || c.busy {
		return
	}
	rs.reported = true
	m := &reportMsg{Initiator: key.initiator, Round: key.round}
	switch c.proto {
	case server.P1:
		r := c.u1.SyncReport()
		m.ReportI = &r
	case server.P2:
		r := c.u2.SyncReport()
		m.ReportII = &r
	}
	// Publish outside the lock is unnecessary: the hub never blocks
	// (deep buffers) and ordering benefits from staying inside.
	if err := c.bc.Publish(broadcast.Message{From: c.id, Payload: m}); err != nil {
		c.recordFailure(fmt.Errorf("driver: publish sync report: %w", err))
	}
}

func (c *Client) roundLocked(key roundKey) *roundState {
	rs, ok := c.rounds[key]
	if !ok {
		rs = &roundState{
			reportsI:  make(map[sig.UserID]core.SyncReportI),
			reportsII: make(map[sig.UserID]core.SyncReportII),
		}
		c.rounds[key] = rs
	}
	return rs
}

func (c *Client) onReport(m *reportMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := roundKey{m.Initiator, m.Round}
	if c.roundDoneLocked(key) {
		return
	}
	rs := c.roundLocked(key)
	// Defensive: if a report for an unseen round arrives first (cannot
	// happen with a FIFO hub), contribute our own as well.
	c.publishOwnReportLocked(key)

	switch {
	case m.ReportI != nil:
		rs.reportsI[m.ReportI.User] = *m.ReportI
	case m.ReportII != nil:
		rs.reportsII[m.ReportII.User] = *m.ReportII
	}
	if len(rs.reportsI) < c.nUsers && len(rs.reportsII) < c.nUsers {
		return
	}
	// Round complete: evaluate and release waiters.
	var err error
	switch c.proto {
	case server.P1:
		reports := make([]core.SyncReportI, 0, c.nUsers)
		for _, r := range rs.reportsI {
			reports = append(reports, r)
		}
		err = c.u1.CompleteSync(reports)
	case server.P2:
		reports := make([]core.SyncReportII, 0, c.nUsers)
		for _, r := range rs.reportsII {
			reports = append(reports, r)
		}
		err = c.u2.CompleteSync(reports)
	}
	if err == nil {
		// The registers agreed; now make sure the roots we verified
		// along the way are the ones the witnesses co-signed. Only then
		// is the round acknowledged and the barrier released.
		err = c.verifyWitnessLocked()
	}
	delete(c.rounds, key)
	if key.round > c.done[key.initiator] {
		c.done[key.initiator] = key.round
	}
	if err != nil {
		c.recordFailure(err)
	}
	c.cond.Broadcast()
}

// recordFailure pins the first failure; detection is terminal (the
// paper's users "terminate and report an error").
func (c *Client) recordFailure(err error) {
	if c.failed == nil {
		c.failed = err
		c.cond.Broadcast()
	}
}

// WaitIdle blocks until no synchronization round is in flight (or a
// failure is recorded). Tests and examples use it to observe sync
// outcomes deterministically. In epoch-audit mode there are no rounds;
// idle means the audit queue has drained.
func (c *Client) WaitIdle(timeout time.Duration) error {
	if c.aud != nil {
		return c.WaitAudited(timeout)
	}
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	var wake *time.Timer
	for len(c.rounds) > 0 && c.failed == nil && !c.closed {
		if !time.Now().Before(deadline) {
			return errors.New("driver: WaitIdle timeout")
		}
		if wake == nil {
			// Round closure, failure and Close all broadcast on cond;
			// the timer adds the one wake-up they cannot give, the
			// deadline itself.
			wake = time.AfterFunc(time.Until(deadline), func() {
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			})
			defer wake.Stop()
		}
		c.cond.Wait()
	}
	return c.failed
}

// Push implements cvs.ContentTransfer over the server connection.
func (c *Client) Push(path string, rev uint64, content []byte) error {
	resp, err := c.conn.Call(&core.PushContentRequest{Path: path, Rev: rev, Content: content})
	if err != nil {
		return err
	}
	if _, ok := resp.(*core.OKResponse); !ok {
		return fmt.Errorf("driver: push returned %T", resp)
	}
	return nil
}

// Fetch implements cvs.ContentTransfer over the server connection.
func (c *Client) Fetch(path string, rev uint64, hash digest.Digest) ([]byte, error) {
	resp, err := c.conn.Call(&core.FetchContentRequest{Path: path, Rev: rev, Hash: hash})
	if err != nil {
		return nil, err
	}
	cr, ok := resp.(*core.ContentResponse)
	if !ok {
		return nil, fmt.Errorf("driver: fetch returned %T", resp)
	}
	// The blob bytes are the server's word alone until they hash to the
	// authenticated revision hash; verify before handing them up (the
	// cvs layer re-checks, but this transfer must not be the one path
	// that delivers unverified bytes).
	if err := rcs.CheckContent(cr.Content, hash); err != nil {
		return nil, err
	}
	return cr.Content, nil
}
