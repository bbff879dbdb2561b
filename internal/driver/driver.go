// Package driver runs the protocol executor live: a Client is the
// goroutine shell around one user's session.Session, a connection to
// the (untrusted) server and — for Protocols I and II — a broadcast
// channel for sync rounds. The session makes every protocol decision;
// the shell adds the client mutex (released around each server call,
// so the receive loop can register a sync round while an operation
// waits on the server), the receive loop, the rider envelope, the
// witness cross-check before a round is acknowledged, and the terminal
// failure slot.
//
// Client implements cvs.Doer, cvs.ContentDoer and cvs.ContentTransfer:
// a cvs.Client on top of it is a fully verified CVS client whose
// commits and checkouts are one round trip each, the content riding
// with the verified operation (DoWithContent).
//
// Protocol II clients run in one of two audit modes. In the default
// synchronous mode a sync round is a barrier: from the moment a client
// learns of a round until it has evaluated all n reports, it starts no
// new operation. With the hub's FIFO total order this realizes the
// paper's "users do not start a new transaction between the sync-up
// message and the broadcast", so the register vector is a consistent
// cut, and a deviation is detected before the next operation starts.
// In epoch-audit mode (NewP2EpochWAL) Do returns as soon as the server
// answers and a background auditor, which owns the user state machine
// outright (the client holds no session), closes one epoch of N global
// operations at a time: detection within one epoch (see package audit).
package driver

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trustedcvs/internal/audit"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/session"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/witness"
)

// Client is one user's live protocol endpoint.
type Client struct {
	conn transport.Caller
	bc   broadcast.Channel
	id   sig.UserID

	mu     sync.Mutex
	cond   *sync.Cond
	sess   *session.Session // nil in epoch-audit mode
	closed bool

	// failed is the terminal detection, written once under mu and read
	// without it, so Push and Fetch can refuse without waiting on a
	// lock an epoch-mode Do holds across its server call.
	failed atomic.Pointer[error]

	check    *witness.Check // nil: no witness cross-check
	noQuorum uint64         // witness checks skipped for lack of quorum

	aud *audit.Auditor // non-nil: epoch-audit mode (NewP2EpochWAL)

	wg sync.WaitGroup
}

// NewP1 builds a Protocol I client. bc must be joined to the same hub
// as every other user; nUsers is the total user population.
func NewP1(user *proto1.User, conn transport.Caller, bc broadcast.Channel, nUsers int) *Client {
	return newClient(user, conn, bc, nUsers)
}

// NewP2 builds a Protocol II client.
func NewP2(user *proto2.User, conn transport.Caller, bc broadcast.Channel, nUsers int) *Client {
	return newClient(user, conn, bc, nUsers)
}

// NewP3 builds a Protocol III client. No broadcast channel: epoch
// duties run over the server connection.
func NewP3(user *proto3.User, conn transport.Caller) *Client {
	return newClient(user, conn, nil, 0)
}

// newClient builds a synchronous-mode client around user, any
// protocol's user state machine.
func newClient(user any, conn transport.Caller, bc broadcast.Channel, nUsers int) *Client {
	c := &Client{conn: conn, bc: bc}
	c.cond = sync.NewCond(&c.mu)
	c.sess = session.New(user, (*link)(c), (*link)(c), nUsers)
	c.id = c.sess.ID()
	if bc != nil {
		c.wg.Add(1)
		go c.recvLoop()
	}
	return c
}

// link is the client as its session's Caller and Publisher; every
// session method runs with c.mu held.
type link Client

func (l *link) Call(req any) (any, error) { return (*Client)(l).call(req) }

// Publish puts one round message on the hub. A round whose message is
// lost never closes, so failing to publish is terminal.
func (l *link) Publish(msg any) {
	c := (*Client)(l)
	if err := c.bc.Publish(broadcast.Message{From: c.id, Payload: msg}); err != nil {
		c.recordFailure(fmt.Errorf("driver: publish sync traffic: %w", err))
	}
}

// ID returns the client's user identity.
func (c *Client) ID() sig.UserID { return c.id }

// SetWitnessCheck arms the witness cross-check: after every verified
// operation the client records the root it derived, and before a sync
// round is acknowledged it compares those roots against the witness
// quorum's signed commitments. A divergence is a detection
// (core.WitnessDivergence), terminal like any other: the client then
// sends the convicted server nothing more. Set before issuing
// operations.
func (c *Client) SetWitnessCheck(chk *witness.Check) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.check = chk
	if c.aud != nil {
		// Epoch-audit mode: the auditor checks once per closed epoch.
		c.aud.SetCheck(chk)
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
	if err := c.detection(); err != nil || c.aud == nil {
		return err
	}
	return c.aud.Err()
}

// detection returns the client's own recorded failure, if any.
func (c *Client) detection() error {
	if p := c.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Journal returns the underlying user's transition journal (nil unless
// enabled on the user before the client was built, and nil in
// epoch-audit mode, where the auditor owns the user). Pool journals
// from all users with forensics.Locate after a detection.
func (c *Client) Journal() *forensics.Journal {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess == nil {
		return nil
	}
	return c.sess.Journal()
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
		adm, err := c.aud.WaitAdmissible()
		if err != nil {
			if !errors.Is(err, audit.ErrClosed) {
				c.mirrorAuditFailure(err)
			}
			return nil, nil, err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if err := c.usableLocked(); err != nil {
			return nil, nil, err
		}
		raw, riders, err := c.exchange(core.OpRequest{User: c.id, Op: op}, push, want)
		if err != nil {
			return nil, nil, err
		}
		ans, err := c.finishEpochLocked(adm, op, raw)
		return ans, riders, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for (c.sess.Syncing() || c.sess.Busy()) && c.failed.Load() == nil && !c.closed {
		c.cond.Wait()
	}
	if err := c.usableLocked(); err != nil {
		return nil, nil, err
	}

	// A sync announcement delivered while the server works (see call)
	// registers its round at once, closing the gate above for the next
	// operation, and Finish publishes the report.
	raw, riders, err := c.exchange(c.sess.Request(op), push, want)
	ans, err := c.sess.Finish(op, raw, err)
	c.cond.Broadcast()
	if err != nil {
		// Only detection is terminal. After a transport failure the
		// state machine has not advanced, so the client stays usable
		// once the network heals.
		if _, ok := core.AsDetection(err); ok {
			c.recordFailure(err)
		}
		return nil, nil, err
	}
	if c.check != nil {
		c.check.Observe(c.sess.VerifiedRoot()) // for the next witness check
	}
	return ans, riders, nil
}

// usableLocked returns the error an operation must fail with, if any.
func (c *Client) usableLocked() error {
	if err := c.detection(); err != nil {
		return err
	}
	if c.closed {
		return errors.New("driver: client closed")
	}
	return nil
}

// call sends one request to the server. In synchronous mode mu is
// released for the duration, so the receive loop registers a delivered
// sync round while the server works; the session's busy flag keeps the
// next operation out meanwhile. In epoch-audit mode nothing on the
// broadcast path wants mu, and holding it keeps concurrent callers'
// operations in submission order.
func (c *Client) call(req any) (any, error) {
	if c.aud != nil {
		return c.conn.Call(req)
	}
	c.mu.Unlock()
	resp, err := c.conn.Call(req)
	c.mu.Lock()
	return resp, err
}

// exchange sends req and returns the protocol server's response. With
// content riding along (push or want) the request travels inside a
// RiderRequest and the riders are stripped from the reply here, before
// anything is verified, queued or journaled; a bare reply attached
// nothing.
func (c *Client) exchange(req core.OpRequest, push [][]byte, want bool) (raw any, riders [][]byte, err error) {
	if push == nil && !want {
		bare := req // escapes on this branch only
		raw, err = c.call(&bare)
		return raw, nil, err
	}
	raw, err = c.call(&core.RiderRequest{OpRequest: req, Want: want, Blobs: push})
	if rr, ok := raw.(*core.RiderResponse); ok {
		raw, riders = rr.Resp, rr.Blobs
	}
	return raw, riders, err
}

// verifyWitnessLocked cross-checks the roots this client verified
// against the witness quorum's signed commitments. In synchronous mode
// it runs with mu held, *before* the sync round is acknowledged, so no
// new operation ever starts on top of a root the witnesses contradict.
func (c *Client) verifyWitnessLocked() error {
	if c.check == nil {
		return nil
	}
	err := c.check.Verify()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, witness.ErrNoQuorum):
		// Too few witnesses answered: availability loss, never
		// detection (or benign failover turns into false alarms).
		c.noQuorum++
		return nil
	default:
		// Divergence; the error names the witness and, when one
		// holds it, the verified fork evidence. In epoch-audit mode
		// the op count is the auditor's and reads 0.
		var lctr uint64
		if c.sess != nil {
			lctr = c.sess.LCtr()
		}
		return core.Detect(core.WitnessDivergence, c.id, lctr, err)
	}
}

// VerifyWitnesses runs the witness cross-check immediately. Protocol
// III clients have no sync rounds to piggyback on, so callers invoke
// this at the cadence they want (per batch, per epoch). Divergence is
// recorded as a terminal detection like any other.
func (c *Client) VerifyWitnesses() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.detection(); err != nil {
		return err
	}
	if err := c.verifyWitnessLocked(); err != nil {
		c.recordFailure(err)
		return err
	}
	return nil
}

// recvLoop processes broadcast traffic: sync announcements and reports
// go to the session, epoch reports to the auditor.
func (c *Client) recvLoop() {
	defer c.wg.Done()
	for msg := range c.bc.Recv() {
		switch p := msg.Payload.(type) {
		case *core.SyncRequest:
			c.mu.Lock()
			if c.sess != nil {
				c.sess.OnAnnounce(p)
			}
			c.mu.Unlock()
		case *session.Report:
			c.onReport(p)
		case *epochReportMsg:
			// Straight to the auditor, never touching c.mu: epoch
			// assembly must make progress while a Do holds the client
			// lock across a server call. The report is unsigned and
			// reaches the auditor unverified, as a sync-mode report
			// reaches the session: the open crossing of AUDIT.md §8.
			if c.aud != nil {
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

// onReport hands a report to the session and, when it closes a round
// the registers agreed on, makes sure the roots verified along the way
// are the ones the witnesses co-signed. Only then is the round
// acknowledged and the barrier released.
func (c *Client) onReport(m *session.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess == nil {
		return
	}
	completed, err := c.sess.OnReport(m)
	if !completed {
		return
	}
	if err == nil {
		err = c.verifyWitnessLocked()
	}
	if err != nil {
		c.recordFailure(err)
	}
	c.cond.Broadcast()
}

// recordFailure pins the first failure; detection is terminal (the
// paper's users "terminate and report an error"). Called with mu held.
func (c *Client) recordFailure(err error) {
	if c.failed.CompareAndSwap(nil, &err) {
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
	for c.sess.Syncing() && c.failed.Load() == nil && !c.closed {
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
	return c.detection()
}

// Push implements cvs.ContentTransfer over the server connection. A
// client that has detected a deviation refuses with the detection, as
// Do does: it has nothing further to say to a convicted server.
func (c *Client) Push(path string, rev uint64, content []byte) error {
	if err := c.Err(); err != nil {
		return err
	}
	resp, err := c.conn.Call(&core.PushContentRequest{Path: path, Rev: rev, Content: content})
	if err != nil {
		return err
	}
	if _, ok := resp.(*core.OKResponse); !ok {
		return fmt.Errorf("driver: push returned %T", resp)
	}
	return nil
}

// Fetch implements cvs.ContentTransfer over the server connection. The
// returned bytes are the server's word alone, exactly as riders are:
// cvs.Client checks them against the hash in the verified answer, the
// one place fetched content is hashed. After a detection Fetch
// refuses, as Push does.
func (c *Client) Fetch(path string, rev uint64, hash digest.Digest) ([]byte, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	resp, err := c.conn.Call(&core.FetchContentRequest{Path: path, Rev: rev, Hash: hash})
	if err != nil {
		return nil, err
	}
	cr, ok := resp.(*core.ContentResponse)
	if !ok {
		return nil, fmt.Errorf("driver: fetch returned %T", resp)
	}
	return cr.Content, nil
}
