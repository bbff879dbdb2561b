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
	// Breaker tunes the client's circuit breaker (closed/open/half-open
	// with seeded probe jitter), which is always armed: a server that
	// keeps failing — or keeps shedding with wire.ErrOverloaded — is
	// redialed only after a jittered cooldown, and exactly one probe
	// tests recovery.
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

// ResilientClient is a Caller that survives connection loss: each Call
// is wrapped in a wire.SessionRequest and retried across automatic
// redials, with bounded, jittered exponential backoff, until the server
// *delivers* an answer. Delivery, not success: an application-level
// error (wire.ErrRemote) is returned immediately — the server applied
// or rejected the request, retrying would double-apply it. Only
// transport failures (reset, timeout, truncation, dial refusal) are
// retried.
//
// The client has one dial function, and where it lands is the dial
// function's business: the session id is one per client, so after a
// loss the retries present the same (SID, Seq) to whichever server the
// dial reaches, and a promoted witness that restored the old server's
// session table replays cached outcomes instead of double-applying —
// the exactly-once cut E15 measures. A client that has convicted its
// server stops calling it: the driver refuses every request with the
// detection.
//
// The peer must be a session-aware transport.Server (ServerOpts with a
// SessionTable, the post-recovery default).
type ResilientClient struct {
	pol  RetryPolicy
	src  *backoff.Source
	dial func() (net.Conn, error)

	mu     sync.Mutex
	brk    *Breaker
	conn   net.Conn
	wc     *wire.Conn
	gen    uint64 // bumped per (re)connect so stale failures don't kill a fresh conn
	sid    uint64
	seq    uint64
	closed bool

	reconnects uint64
}

// DialResilient returns a resilient client for addr with policy pol
// (zero value = defaults).
func DialResilient(addr string, pol RetryPolicy) *ResilientClient {
	timeout := pol.withDefaults().CallTimeout
	return DialResilientFunc(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	}, pol)
}

// DialResilientFunc is DialResilient over a custom dial function — how
// the fault harness interposes flaky connections, and how a caller
// fails over to another address.
func DialResilientFunc(dial func() (net.Conn, error), pol RetryPolicy) *ResilientClient {
	pol = pol.withDefaults()
	var src *backoff.Source
	if pol.JitterSeed != 0 {
		src = backoff.NewSeededSource(pol.JitterSeed)
	} else {
		src = backoff.NewSource()
	}
	return &ResilientClient{pol: pol, src: src, dial: dial, brk: NewBreaker(pol.Breaker), sid: wire.RandomSID()}
}

// Reconnects reports how many times the client has had to redial.
func (c *ResilientClient) Reconnects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

var (
	errClosed = errors.New("transport: client closed")
	// errBreakerOpen is retried with backoff: the breaker is holding
	// traffic off the server, or another caller holds the probe slot.
	errBreakerOpen = errors.New("transport: breaker is open")
)

// untilProbe is how long until an open breaker's cooldown lapses (0
// when it is not open: a probe is already in flight).
func (c *ResilientClient) untilProbe() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.brk.State() != BreakerOpen {
		return 0
	}
	return time.Until(c.brk.ProbeAt())
}

// ensure returns a live connection and its generation, dialing if
// needed. The dial happens under mu; that is acceptable because no
// request I/O is in flight on this client while it has no connection.
// While the breaker is not closed only the caller that claims its one
// half-open probe dials — the mechanism that bounds probe storms:
// however many callers race the recovery, one reaches the server.
func (c *ResilientClient) ensure() (net.Conn, *wire.Conn, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, 0, errClosed
	}
	if c.conn != nil {
		return c.conn, c.wc, c.gen, nil
	}
	if c.brk.State() != BreakerClosed {
		if !c.brk.ProbeReady(time.Now()) {
			return nil, nil, 0, errBreakerOpen
		}
		c.brk.ClaimProbe()
	}
	conn, err := c.dial()
	if err != nil {
		c.brk.Failure(time.Now(), c.src)
		return nil, nil, 0, err
	}
	c.conn, c.wc = conn, wire.NewConn(conn)
	c.gen++
	if c.gen > 1 {
		c.reconnects++
	}
	return c.conn, c.wc, c.gen, nil
}

// settle scores one attempt's outcome on the connection of generation
// gen, if it is still the current one (a concurrent Call may already
// have replaced it). A delivered answer or verdict closes the breaker;
// a typed shed counts against it, so sustained shedding paces the next
// redial; a failed connection counts against it and is dropped.
func (c *ResilientClient) settle(gen uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	switch {
	case errors.Is(err, wire.ErrOverloaded):
		c.brk.Failure(time.Now(), c.src)
	case err == nil || errors.Is(err, wire.ErrRemote):
		c.brk.Success()
	default:
		c.brk.Failure(time.Now(), c.src)
		if c.conn != nil {
			c.conn.Close()
			c.conn, c.wc = nil, nil
		}
	}
}

// Call implements Caller with at-most-once application semantics: the
// same (SID, Seq) is presented on every retry, across every redial, so
// whichever server holds the session state either applies the request
// once and replays the cached response, or reports a transport failure
// that provably did not reach application.
func (c *ResilientClient) Call(req any) (any, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	c.seq++
	sreq := &wire.SessionRequest{SID: c.sid, Seq: c.seq, Req: req}
	c.mu.Unlock()

	bo := backoff.New(backoff.Policy{Min: c.pol.BackoffMin, Max: c.pol.BackoffMax}, c.src)
	var lastErr error
	var probeWait time.Duration // set when the breaker refused the last attempt
	for attempt := 0; attempt < c.pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			bo.SleepAtLeast(probeWait)
			probeWait = 0
		}
		conn, wc, gen, err := c.ensure()
		if err != nil {
			if errors.Is(err, errBreakerOpen) {
				// Wait out the cooldown instead of spending the remaining
				// attempts inside it: the breaker paces dials, it must not
				// shorten the caller's patience.
				probeWait = c.untilProbe()
			}
			lastErr = err
			continue
		}
		// The per-attempt deadline covers the whole round trip; network
		// I/O runs outside mu so concurrent Calls pipeline on one
		// connection.
		_ = conn.SetDeadline(time.Now().Add(c.pol.CallTimeout))
		resp, err := wc.Call(sreq)
		c.settle(gen, err)
		if err == nil || errors.Is(err, wire.ErrRemote) {
			// Delivered: an answer, the handler's verdict, or a typed
			// shed. A shed was refused before any state was touched, and
			// it is surfaced — never retried against the server that just
			// shed us. A server-side ErrDeadlineExceeded is a verdict too:
			// retrying expired work is by definition pointless.
			_ = conn.SetDeadline(time.Time{})
			return resp, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: call failed after %d attempts: %w", c.pol.MaxAttempts, lastErr)
}

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
