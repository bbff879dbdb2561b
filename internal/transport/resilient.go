package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/wire"
)

// RetryPolicy bounds the self-healing behavior of a ResilientClient.
// The zero value selects the defaults noted per field.
type RetryPolicy struct {
	// CallTimeout is the per-attempt deadline covering dial, write and
	// read of one request (default 10s).
	CallTimeout time.Duration
	// MaxAttempts is the total tries per Call, first attempt included
	// (default 8).
	MaxAttempts int
	// BackoffMin/BackoffMax bound the exponential backoff between
	// attempts (defaults 10ms and 2s). Each delay carries seeded jitter
	// so clients that lose a server together do not redial it in
	// lockstep.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// JitterSeed seeds the jitter stream; 0 draws a random seed. Tests
	// pass fixed distinct seeds for reproducible, decorrelated
	// schedules.
	JitterSeed uint64
	// Budget, when positive, is the total end-to-end deadline for each
	// Call, propagated to the server in every attempt's frame header
	// (shrinking attempt by attempt — the hop decrement). When it
	// expires the Call returns wire.ErrDeadlineExceeded instead of
	// retrying: the caller has given up, so the client stops spending
	// server capacity on it. 0 disables deadline propagation.
	Budget time.Duration
	// Breaker tunes the per-endpoint circuit breaker (closed/open/
	// half-open with seeded probe jitter), which is always armed:
	// endpoints that keep failing — or keep shedding with
	// wire.ErrOverloaded — are skipped for a jittered cooldown instead
	// of hammered, and exactly one probe tests recovery.
	Breaker BreakerPolicy
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.CallTimeout <= 0 {
		p.CallTimeout = 10 * time.Second
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BackoffMin <= 0 {
		p.BackoffMin = 10 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	return p
}

// Endpoint is one dialable server address a ResilientClient may use.
type Endpoint struct {
	// Name identifies the endpoint for health reporting and
	// quarantining ("primary", "witness-2", ...).
	Name string
	// Dial opens a connection to the endpoint.
	Dial func() (net.Conn, error)
}

// healthCap bounds an endpoint's integer health score so one long good
// (or bad) streak cannot take arbitrarily many failures (successes) to
// forget.
const healthCap = 8

// endpointState is the client's per-endpoint bookkeeping.
type endpointState struct {
	ep          Endpoint
	health      int
	quarantined bool
	brk         *Breaker
}

// ResilientClient is a Caller that survives connection loss and, when
// given several endpoints, primary loss: each Call is wrapped in a
// wire.SessionRequest and retried across automatic reconnects —
// failing over to the healthiest non-quarantined endpoint — with
// bounded, jittered exponential backoff until the server *delivers*
// an answer. Delivery, not success: an application-level error
// (wire.ErrRemote) is returned immediately — the server applied or
// rejected the request, retrying would double-apply it. Only
// transport failures (reset, timeout, truncation, dial refusal) are
// retried.
//
// The session id is one per client, not per endpoint: after a
// failover, retries present the same (SID, Seq) to the new endpoint,
// so a promoted witness that restored the primary's session table
// replays cached outcomes instead of double-applying — the
// exactly-once cut E15 measures.
//
// The peer must be a session-aware transport.Server (ServerOpts with a
// SessionTable, the post-recovery default).
type ResilientClient struct {
	pol RetryPolicy
	src *backoff.Source

	mu        sync.Mutex
	endpoints []*endpointState
	epIdx     int // endpoint the current (or last) conn belongs to
	conn      net.Conn
	wc        *wire.Conn
	gen       uint64 // bumped per (re)connect so stale failures don't kill a fresh conn
	sid       uint64
	seq       uint64
	closed    bool

	reconnects uint64
	failovers  uint64
	overloads  uint64
}

// DialResilient returns a resilient client for addr with policy pol
// (zero value = defaults).
func DialResilient(addr string, pol RetryPolicy) *ResilientClient {
	return DialResilientEndpoints([]Endpoint{{
		Name: addr,
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, pol.withDefaults().CallTimeout)
		},
	}}, pol)
}

// DialResilientFunc is DialResilient over a custom dialer — how the
// fault harness interposes flaky connections.
func DialResilientFunc(dial func() (net.Conn, error), pol RetryPolicy) *ResilientClient {
	return DialResilientEndpoints([]Endpoint{{Name: "endpoint", Dial: dial}}, pol)
}

// DialResilientEndpoints returns a resilient client over several
// endpoints. Order expresses preference: ties in health score go to
// the earliest endpoint, so list the primary first.
func DialResilientEndpoints(eps []Endpoint, pol RetryPolicy) *ResilientClient {
	if len(eps) == 0 {
		//lint:ignore panicfree constructor misuse by the caller's own code, not reachable from request bytes
		panic("transport: resilient client needs at least one endpoint")
	}
	pol = pol.withDefaults()
	var src *backoff.Source
	if pol.JitterSeed != 0 {
		src = backoff.NewSeededSource(pol.JitterSeed)
	} else {
		src = backoff.NewSource()
	}
	states := make([]*endpointState, len(eps))
	for i, ep := range eps {
		states[i] = &endpointState{ep: ep, brk: NewBreaker(pol.Breaker)}
	}
	return &ResilientClient{pol: pol, src: src, endpoints: states, sid: wire.RandomSID()}
}

// Reconnects reports how many times the client has had to redial.
func (c *ResilientClient) Reconnects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Failovers reports how many reconnects landed on a different endpoint
// than the previous connection.
func (c *ResilientClient) Failovers() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// EndpointName returns the name of the endpoint the current (or most
// recent) connection uses.
func (c *ResilientClient) EndpointName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoints[c.epIdx].ep.Name
}

// Health returns a snapshot of the per-endpoint health scores
// (quarantined endpoints are omitted).
func (c *ResilientClient) Health() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[string]int, len(c.endpoints))
	for _, s := range c.endpoints {
		if !s.quarantined {
			m[s.ep.Name] = s.health
		}
	}
	return m
}

// ErrAllQuarantined is returned when every endpoint has been
// quarantined — the client refuses to talk to servers whose
// commitments diverged, because "failing over" to a forked server is
// how a partition attack wins.
var ErrAllQuarantined = errors.New("transport: every endpoint is quarantined")

// Quarantine permanently bars an endpoint, severing its connection if
// it is the current one. Called by the driver when the witness
// cross-check convicts the endpoint of divergence.
func (c *ResilientClient) Quarantine(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range c.endpoints {
		if s.ep.Name != name {
			continue
		}
		s.quarantined = true
		if i == c.epIdx && c.conn != nil {
			c.conn.Close()
			c.conn, c.wc = nil, nil
		}
	}
}

// ErrAllBreakersOpen is returned (and retried with backoff) when every
// non-quarantined endpoint's circuit breaker is holding traffic off —
// the paced version of "everything is down right now".
var ErrAllBreakersOpen = errors.New("transport: every endpoint's breaker is open")

// pickLocked selects the healthiest non-quarantined endpoint with a
// closed breaker, earliest index winning ties. When every
// candidate is breaker-blocked, it claims at most one half-open probe
// slot — the mechanism that bounds probe storms: however many callers
// race the pick, only the claimant reaches the recovering endpoint.
func (c *ResilientClient) pickLocked() (int, error) {
	now := time.Now()
	best, probe, blocked := -1, -1, false
	for i, s := range c.endpoints {
		if s.quarantined {
			continue
		}
		if s.brk.State() != BreakerClosed {
			blocked = true
			if probe < 0 && s.brk.ProbeReady(now) {
				probe = i
			}
			continue
		}
		if best < 0 || s.health > c.endpoints[best].health {
			best = i
		}
	}
	if best >= 0 {
		return best, nil
	}
	if probe >= 0 {
		c.endpoints[probe].brk.ClaimProbe()
		return probe, nil
	}
	if blocked {
		return 0, ErrAllBreakersOpen
	}
	return 0, ErrAllQuarantined
}

// untilProbe is how long until the first open breaker's cooldown
// lapses (0 when none is open: a probe is already in flight).
func (c *ResilientClient) untilProbe() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first time.Time
	for _, s := range c.endpoints {
		if at := s.brk.ProbeAt(); !s.quarantined && s.brk.State() == BreakerOpen && (first.IsZero() || at.Before(first)) {
			first = at
		}
	}
	if first.IsZero() {
		return 0
	}
	return time.Until(first)
}

// noteLocked adjusts an endpoint's health score within ±healthCap.
func (s *endpointState) noteLocked(delta int) {
	s.health += delta
	if s.health > healthCap {
		s.health = healthCap
	}
	if s.health < -healthCap {
		s.health = -healthCap
	}
}

// ensure returns a live connection and its generation, dialing the
// preferred endpoint if needed. The dial happens under mu; that is
// acceptable because no request I/O is in flight on this client while
// it has no connection.
func (c *ResilientClient) ensure() (net.Conn, *wire.Conn, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, 0, errors.New("transport: client closed")
	}
	if c.conn != nil {
		return c.conn, c.wc, c.gen, nil
	}
	idx, err := c.pickLocked()
	if err != nil {
		return nil, nil, 0, err
	}
	conn, err := c.endpoints[idx].ep.Dial()
	if err != nil {
		c.endpoints[idx].noteLocked(-1)
		c.endpoints[idx].brk.Failure(time.Now(), c.src)
		return nil, nil, 0, err
	}
	if c.gen > 0 && idx != c.epIdx {
		c.failovers++
	}
	c.epIdx = idx
	c.conn, c.wc = conn, wire.NewConn(conn)
	c.gen++
	if c.gen > 1 {
		c.reconnects++
	}
	return c.conn, c.wc, c.gen, nil
}

// drop discards the connection of generation gen, if it is still the
// current one (a concurrent Call may already have replaced it), and
// scores the failure against its endpoint.
func (c *ResilientClient) drop(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == gen {
		c.endpoints[c.epIdx].noteLocked(-1)
		c.endpoints[c.epIdx].brk.Failure(time.Now(), c.src)
		if c.conn != nil {
			c.conn.Close()
			c.conn, c.wc = nil, nil
		}
	}
}

// credit scores a delivered response for the endpoint of generation
// gen.
func (c *ResilientClient) credit(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == gen {
		c.endpoints[c.epIdx].noteLocked(1)
		c.endpoints[c.epIdx].brk.Success()
	}
}

// noteOverload scores a typed overload shed against the endpoint of
// generation gen: health down, breaker failure (sustained shedding
// opens the breaker and shifts traffic), and — when another endpoint
// is available to fail over to — the shedding endpoint's connection is
// released so the next attempt lands elsewhere. Reports whether a
// failover target exists; if not, the caller surfaces the overload
// instead of hammering the only server it has.
func (c *ResilientClient) noteOverload(gen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return true // a concurrent call already rotated the conn
	}
	c.overloads++
	now := time.Now()
	c.endpoints[c.epIdx].noteLocked(-1)
	c.endpoints[c.epIdx].brk.Failure(now, c.src)
	for i, s := range c.endpoints {
		if i == c.epIdx || s.quarantined {
			continue
		}
		if s.brk.State() != BreakerClosed && !s.brk.ProbeReady(now) {
			continue
		}
		// Failover target found: release the shedding endpoint's conn.
		if c.conn != nil {
			c.conn.Close()
			c.conn, c.wc = nil, nil
		}
		return true
	}
	return false
}

// Overloads reports how many typed overload sheds this client has
// absorbed.
func (c *ResilientClient) Overloads() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overloads
}

// BreakerStates snapshots each endpoint's breaker state.
func (c *ResilientClient) BreakerStates() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[string]string, len(c.endpoints))
	for _, s := range c.endpoints {
		m[s.ep.Name] = s.brk.State().String()
	}
	return m
}

// Call implements Caller with at-most-once application semantics: the
// same (SID, Seq) is presented on every retry — across reconnects AND
// failovers — so whichever server holds the session state either
// applies the request once and replays the cached response, or reports
// a transport failure that provably did not reach application.
func (c *ResilientClient) Call(req any) (any, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("transport: client closed")
	}
	c.seq++
	sreq := &wire.SessionRequest{SID: c.sid, Seq: c.seq, Req: req}
	c.mu.Unlock()

	var deadline time.Time
	if c.pol.Budget > 0 {
		deadline = time.Now().Add(c.pol.Budget)
	}
	bo := backoff.New(backoff.Policy{Min: c.pol.BackoffMin, Max: c.pol.BackoffMax}, c.src)
	var lastErr error
	var probeWait time.Duration // set when every breaker refused the last attempt
	for attempt := 0; attempt < c.pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !deadline.IsZero() {
				probeWait = min(probeWait, time.Until(deadline))
			}
			bo.SleepAtLeast(probeWait)
			probeWait = 0
		}
		budget := time.Duration(0)
		if !deadline.IsZero() {
			if budget = time.Until(deadline); budget <= 0 {
				// The caller's budget ran out between attempts: stop
				// here rather than burn server capacity on an answer
				// nobody will read.
				return nil, fmt.Errorf("transport: call budget exhausted after %d attempts (last: %v)%w", attempt, lastErr, clientErr{wire.ErrDeadlineExceeded})
			}
		}
		conn, wc, gen, err := c.ensure()
		if err != nil {
			if errors.Is(err, ErrAllQuarantined) {
				return nil, err
			}
			if errors.Is(err, ErrAllBreakersOpen) {
				// Wait out the cooldown instead of spending the remaining
				// attempts inside it: the breaker paces dials, it must not
				// shorten the caller's patience.
				probeWait = c.untilProbe()
			}
			lastErr = err
			continue
		}
		// The per-attempt deadline covers the whole round trip (capped
		// by what remains of the call budget); network I/O runs outside
		// mu so concurrent Calls pipeline on one connection.
		timeout := c.pol.CallTimeout
		if budget > 0 && budget < timeout {
			timeout = budget
		}
		_ = conn.SetDeadline(time.Now().Add(timeout))
		resp, err := wc.CallBudget(sreq, budget)
		if err == nil {
			_ = conn.SetDeadline(time.Time{})
			c.credit(gen)
			return resp, nil
		}
		if errors.Is(err, wire.ErrOverloaded) {
			// Typed shed: delivered, but refused before any state was
			// touched, so re-presenting the same (SID, Seq) elsewhere
			// is safe. Fail over when another endpoint is available;
			// surface the overload when this was the only one — never
			// hammer the server that just shed us.
			_ = conn.SetDeadline(time.Time{})
			if !c.noteOverload(gen) {
				return nil, err
			}
			lastErr = err
			continue
		}
		if errors.Is(err, wire.ErrRemote) {
			// Delivered: the handler's verdict came back. Not a fault.
			// (Includes a server-side ErrDeadlineExceeded: the server
			// refused expired work; retrying an expired request is by
			// definition pointless.)
			_ = conn.SetDeadline(time.Time{})
			c.credit(gen)
			return nil, err
		}
		lastErr = err
		c.drop(gen)
	}
	return nil, fmt.Errorf("transport: call failed after %d attempts: %w", c.pol.MaxAttempts, lastErr)
}

// clientErr splices a typed sentinel into a client-side error without
// altering its message (the client-side analogue of wire's marker).
type clientErr struct{ is error }

func (clientErr) Error() string          { return "" }
func (m clientErr) Is(target error) bool { return target == m.is }

// Close implements Caller.
func (c *ResilientClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn, c.wc = nil, nil
		return err
	}
	return nil
}
