// Package transport provides the client/server plumbing: a pipelined
// TCP server feeding requests into a protocol handler, a TCP dialer,
// and an in-process transport with the same interface for tests,
// examples and benchmarks.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/wire"
)

// Caller is a synchronous request/response client.
type Caller interface {
	Call(req any) (any, error)
	Close() error
}

// Handler processes one request. Transports invoke handlers
// concurrently (one goroutine per connection, bounded by the
// admission controller's limit); the protocol servers synchronize
// internally around their ordered sections, so the transport imposes
// no global lock of its own.
type Handler func(req any) (any, error)

// Options tunes a Server. The zero value is the production
// configuration: pipelined handler, default admission control.
type Options struct {
	// IdleTimeout severs a connection whose next request does not
	// arrive in time, so a stalled client cannot pin a serving
	// goroutine forever (0 = DefaultIdleTimeout, negative = disabled).
	IdleTimeout time.Duration
	// Sessions, when set, deduplicates wire.SessionRequest envelopes
	// through the table before the handler — the server half of the
	// resilient client's exactly-once retry contract. Plain requests
	// bypass the table untouched.
	Sessions *SessionTable
	// Admission configures the server's one concurrency governor: a
	// bounded priority queue with an adaptive (AIMD) limit that sheds
	// excess load with typed wire.ErrOverloaded *before* the handler or
	// session cache is touched. Decode and encode happen on the
	// connection goroutines outside the limit; the limit keeps a flood
	// of connections from piling up in the protocol servers' ordered
	// sections. The zero value selects the defaults (limit 2..64, target
	// 25ms, queue 128). See Admission.
	Admission AdmissionOptions
	// Classify maps an (unwrapped) request payload to its admission
	// priority class. nil classifies everything as PriorityUser.
	Classify func(req any) Priority
}

// DefaultIdleTimeout applies when Options.IdleTimeout is zero;
// DefaultWriteTimeout bounds every response write.
const (
	DefaultIdleTimeout  = 5 * time.Minute
	DefaultWriteTimeout = 1 * time.Minute
)

// Inproc is an in-process Caller invoking a handler directly.
type Inproc struct {
	mu      sync.Mutex
	handler Handler
	closed  bool
}

// NewInproc wraps a handler.
func NewInproc(h Handler) *Inproc { return &Inproc{handler: h} }

// Call implements Caller. Calls run concurrently, like the TCP
// transport; only the closed check is locked. A response is the
// handler's own object, so Call detaches it (Detacher): the caller may
// keep or modify it without reaching server memory, as a decoded frame
// allows over TCP.
func (c *Inproc) Call(req any) (any, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, errors.New("transport: closed")
	}
	resp, err := c.handler(req)
	if d, ok := resp.(Detacher); ok && err == nil {
		d.Detach()
	}
	return resp, err
}

// Close implements Caller.
func (c *Inproc) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// Server accepts TCP connections and feeds requests through the
// handler, one serving goroutine per connection with a bounded number
// of concurrent handler invocations.
type Server struct {
	lis     net.Listener
	handler Handler
	opts    Options
	adm     *Admission

	mu       sync.Mutex // guards conns, draining, inflight
	conns    map[net.Conn]struct{}
	draining bool
	inflight int
	drained  chan struct{} // closed when draining && inflight == 0
	wg       sync.WaitGroup
	closed   chan struct{}
}

// Listen starts a server on addr ("127.0.0.1:0" picks a free port)
// with default Options.
func Listen(addr string, h Handler) (*Server, error) {
	return ListenOpts(addr, h, Options{})
}

// ListenOpts starts a server with explicit Options.
func ListenOpts(addr string, h Handler, opts Options) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return ServeListener(lis, h, opts), nil
}

// ServeListener starts a server over an existing listener — how the
// fault harness interposes a fault.Listener, and how a recovering
// process rebinds its old address before restoring state.
func ServeListener(lis net.Listener, h Handler, opts Options) *Server {
	s := &Server{
		lis:     lis,
		handler: h,
		opts:    opts,
		adm:     NewAdmission(opts.Admission),
		conns:   make(map[net.Conn]struct{}),
		drained: make(chan struct{}),
		closed:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// AdmissionStats snapshots the admission controller.
func (s *Server) AdmissionStats() AdmissionStats { return s.adm.Stats() }

// AdmissionOptions returns the admission controller's configuration
// with defaults resolved — what it actually runs with, not what the
// caller passed.
func (s *Server) AdmissionOptions() AdmissionOptions { return s.adm.opt }

// Addr returns the bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	// A failed Accept (EMFILE, ECONNABORTED) is waited out, never the
	// end of the loop: only Close ends it.
	bo := backoff.Accept()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			if !bo.SleepCh(s.closed) {
				return
			}
			continue
		}
		bo.Reset()
		if !s.track(conn) {
			conn.Close() // lost the race with Close
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			_ = wire.Serve(s.withDeadlines(conn), s.dispatch)
		}()
	}
}

// withDeadlines wraps conn so every blocking Read carries the idle
// timeout and every Write the write timeout. Stalled or vanished
// clients then cost one timeout, not a goroutine forever.
func (s *Server) withDeadlines(conn net.Conn) io.ReadWriter {
	idle := s.opts.IdleTimeout
	if idle == 0 {
		idle = DefaultIdleTimeout
	}
	return &deadlineConn{conn: conn, idle: idle}
}

// deadlineConn arms a fresh deadline before each I/O so timeouts are
// per-operation (idle gap, single write), not per-connection-lifetime.
type deadlineConn struct {
	conn net.Conn
	idle time.Duration
}

func (d *deadlineConn) Read(p []byte) (int, error) {
	if d.idle > 0 {
		if err := d.conn.SetReadDeadline(time.Now().Add(d.idle)); err != nil {
			return 0, err
		}
	}
	return d.conn.Read(p)
}

func (d *deadlineConn) Write(p []byte) (int, error) {
	if err := d.conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout)); err != nil {
		return 0, err
	}
	return d.conn.Write(p)
}

// dispatch answers one request. The request counts as in flight from
// here until its response frame has been written: a graceful
// Shutdown's drain waits for the reply to be on the wire, not merely
// for the handler to return, so an operation the server applied is
// never answered with a severed connection. During the drain window
// new requests are refused while in-flight ones complete.
func (s *Server) dispatch(req any, budget time.Duration, reply func(resp any, err error) error) error {
	if err := s.beginReq(); err != nil {
		return reply(nil, err)
	}
	defer s.endReq()
	return reply(s.handle(req, budget))
}

// handle runs one request through the handler under admission
// control, with the request's propagated deadline budget (0 = none)
// anchored at decode time. Session envelopes route through the dedupe
// table when configured. Ordering is the whole point here: the session
// cache is consulted *before* admission (a retry of an already-applied
// op must replay its cached response, not risk a shed that would
// falsely report "refused" for applied work), and admission runs
// *before* the handler (a shed op never touches protocol state). Typed
// refusals are never cached (see SessionTable.Dispatch), so the
// combination keeps refusals atomic.
func (s *Server) handle(req any, budget time.Duration) (any, error) {
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	inner := func(r any) (any, error) { return s.admitAndHandle(r, deadline) }
	if sr, ok := req.(*wire.SessionRequest); ok && s.opts.Sessions != nil {
		return s.opts.Sessions.Dispatch(sr, inner)
	}
	if sr, ok := req.(*wire.SessionRequest); ok {
		// No table: honor the envelope without dedupe so a resilient
		// client still works against a plain server (retries then rely
		// on the protocol's own detection, as documented in DESIGN.md).
		return inner(sr.Req)
	}
	return inner(req)
}

// admitAndHandle sheds expired or excess requests with typed errors
// (Acquire refuses a deadline that lapsed before admission) before any
// protocol state is touched, then runs the handler.
func (s *Server) admitAndHandle(req any, deadline time.Time) (any, error) {
	class := PriorityUser
	if s.opts.Classify != nil {
		class = s.opts.Classify(req)
	}
	if err := s.adm.Acquire(class, deadline); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { s.adm.Release(time.Since(start)) }()
	if !deadline.IsZero() && start.After(deadline) {
		// The wait in the admission queue consumed the budget: the
		// client is gone, so don't burn the slot on work nobody will
		// read.
		return nil, fmt.Errorf("transport: deadline expired in admission queue%w", admErr{wire.ErrDeadlineExceeded})
	}
	return s.handler(req)
}

func (s *Server) beginReq() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errors.New("transport: server shutting down")
	}
	s.inflight++
	return nil
}

func (s *Server) endReq() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	s.mu.Unlock()
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Shutdown is the graceful variant of Close: it stops admitting new
// requests, waits up to drain for in-flight requests to complete —
// handler returned and response written — then severs everything via
// Close. A zero or negative drain degrades to an immediate Close.
func (s *Server) Shutdown(drain time.Duration) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	s.mu.Unlock()
	if drain > 0 {
		timer := time.NewTimer(drain)
		select {
		case <-s.drained:
		case <-timer.C:
		}
		timer.Stop()
	}
	return s.Close()
}

// Close stops accepting, severs open client connections, and waits for
// the serving goroutines (including any in-flight handler call) to
// drain before returning.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		return nil
	default:
	}
	close(s.closed)
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

// Dial connects to a transport server.
func Dial(addr string) (Caller, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return wire.NewConn(conn), nil
}
