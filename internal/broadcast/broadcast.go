// Package broadcast implements the reliable broadcast channel among
// users that Protocols I and II assume for their synchronization step
// — the "external communication" Theorem 3.1 proves necessary. Two
// implementations share one interface: an in-process hub (tests,
// examples, benchmarks) and a TCP hub (the tcvs binaries).
//
// The channel is between USERS only; the untrusted server never sees
// it. Reliability and in-order delivery are assumed by the paper's
// model (failures are out of scope). The TCP hub no longer leans on
// that assumption for resumable sessions: from the first one's hello on
// it keeps an indexed log of everything published, so a participant
// that loses its connection redials and resumes from its last-delivered
// index (DialHubResume) — same FIFO total order, no gaps, no
// duplicates. The sync-barrier proof needs exactly that order, which is
// why resumption replays the hub's log instead of trusting the network.
// Legacy participants (DialHub) cannot resume, so a hub that serves
// only them keeps no history.
package broadcast

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/binenc"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/wire"
)

// Wire tags of the broadcast frames (wire.Register). The numbers are
// part of the wire format.
const (
	wireMessage  = 80
	wireHubHello = 81
	wireHubPub   = 82
	wireHubSeq   = 83
	wireHubAck   = 84
)

func init() {
	wire.Register(wireMessage, func(b []byte, m *Message) ([]byte, error) {
		return appendMessage(b, m)
	}, func(r *binenc.Reader) *Message {
		m := readMessage(r)
		return &m
	})
	wire.Register(wireHubHello, func(b []byte, m *hubHello) ([]byte, error) {
		return binary.AppendUvarint(binary.AppendUvarint(b, m.SID), m.Last), nil
	}, func(r *binenc.Reader) *hubHello {
		return &hubHello{SID: r.Uvarint(), Last: r.Uvarint()}
	})
	wire.Register(wireHubPub, func(b []byte, m *hubPub) ([]byte, error) {
		b = binary.AppendUvarint(binary.AppendUvarint(b, m.SID), m.PubSeq)
		return appendMessage(b, &m.Msg)
	}, func(r *binenc.Reader) *hubPub {
		return &hubPub{SID: r.Uvarint(), PubSeq: r.Uvarint(), Msg: readMessage(r)}
	})
	wire.Register(wireHubSeq, func(b []byte, m *hubSeq) ([]byte, error) {
		b = binary.AppendUvarint(b, m.Idx)
		b = binary.AppendUvarint(binary.AppendUvarint(b, m.SID), m.PubSeq)
		return appendMessage(b, &m.Msg)
	}, func(r *binenc.Reader) *hubSeq {
		return &hubSeq{Idx: r.Uvarint(), SID: r.Uvarint(), PubSeq: r.Uvarint(), Msg: readMessage(r)}
	})
	wire.Register(wireHubAck, func(b []byte, m *hubAck) ([]byte, error) {
		return binary.AppendUvarint(b, m.LastPub), nil
	}, func(r *binenc.Reader) *hubAck {
		return &hubAck{LastPub: r.Uvarint()}
	})
}

// appendMessage appends a Message body: the sender, then the payload
// nested as tag + body.
func appendMessage(b []byte, m *Message) ([]byte, error) {
	return wire.Append(binary.AppendUvarint(b, uint64(m.From)), m.Payload)
}

func readMessage(r *binenc.Reader) Message {
	return Message{From: sig.UserID(r.Uint32()), Payload: wire.Read(r)}
}

// hubHello upgrades a connection to resumable delivery: the hub
// replays every logged entry with index > Last, then streams new ones.
type hubHello struct {
	SID  uint64 // client session nonce, nonzero
	Last uint64 // last log index the client has fully delivered
}

// hubPub is a resumable client's publication. PubSeq increments per
// publish within the session; the hub logs each (SID, PubSeq) at most
// once, so the resend-after-reconnect a client cannot avoid (it can't
// know whether the first copy arrived) is deduplicated here instead of
// fanning out twice — a duplicate sync-request would re-open a
// completed round and tear the registers' consistent cut.
type hubPub struct {
	SID    uint64
	PubSeq uint64
	Msg    Message
}

// hubSeq is one log entry as delivered to resumable clients: the
// message plus its position in the hub's total order and the publisher
// coordinates the client needs to ack its own publications.
type hubSeq struct {
	Idx    uint64
	SID    uint64
	PubSeq uint64
	Msg    Message
}

// hubAck tells a resumable publisher how far its publications are
// durably in the log (every PubSeq <= LastPub), sent on hello and on
// every received publication. Without it a publisher behind on log
// delivery would have to read its whole backlog before learning that
// its resends are redundant — on a flaky link the resend traffic then
// starves the very reads that would quiet it.
type hubAck struct {
	LastPub uint64
}

// Message is one broadcast datum. Over the TCP hub a Payload must be a
// type in the wire tag table (wire.Register); the core package
// registers all protocol messages.
type Message struct {
	From    sig.UserID
	Payload any
}

// Channel is one participant's endpoint: publish to all, receive all
// (including one's own publications, which simplifies sync rounds —
// every participant processes the same message sequence).
type Channel interface {
	Publish(msg Message) error
	Recv() <-chan Message
	Close() error
}

// ErrClosed is returned when publishing on a closed channel.
var ErrClosed = errors.New("broadcast: closed")

// chanBuf is the per-subscriber buffer. Sync rounds are tiny (n+1
// messages); a deep buffer means publishers never block in practice.
const chanBuf = 1024

// Hub is the in-process broadcast medium.
type Hub struct {
	mu     sync.Mutex
	subs   map[*hubChannel]struct{}
	closed bool
}

// NewHub creates an empty hub.
func NewHub() *Hub { return &Hub{subs: make(map[*hubChannel]struct{})} }

// Join adds a participant.
func (h *Hub) Join() Channel {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := &hubChannel{hub: h, ch: make(chan Message, chanBuf)}
	h.subs[c] = struct{}{}
	return c
}

func (h *Hub) publish(msg Message) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	for s := range h.subs {
		select {
		case s.ch <- msg:
		default:
			// A subscriber this far behind has left the model's
			// bounded-delivery world; fail loudly rather than drop
			// silently.
			return fmt.Errorf("broadcast: subscriber buffer overflow")
		}
	}
	return nil
}

// Close shuts the hub down; all subscriber channels are closed.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
	}
	h.subs = map[*hubChannel]struct{}{}
}

type hubChannel struct {
	hub    *Hub
	ch     chan Message
	closed bool
	mu     sync.Mutex
}

func (c *hubChannel) Publish(msg Message) error { return c.hub.publish(msg) }

func (c *hubChannel) Recv() <-chan Message { return c.ch }

func (c *hubChannel) Close() error {
	c.hub.mu.Lock()
	defer c.hub.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		if _, ok := c.hub.subs[c]; ok {
			delete(c.hub.subs, c)
			close(c.ch)
		}
	}
	return nil
}

// HubServer is the TCP broadcast hub: every connected client receives
// every published message (including its own) in one total order. From
// the first resumable client's hello (or publication) on, the hub keeps
// an indexed log of that order so resumable clients (DialHubResume) can
// reconnect and catch up from their last-delivered index; legacy
// clients (DialHub) get plain fan-out as before, and a hub that has
// only ever served them keeps no history, which none of them could ask
// for.
type HubServer struct {
	lis net.Listener

	mu      sync.Mutex
	logging bool              // a resumable session spoke: publications are logged from here on
	log     []*hubSeq         // the total order since logging began; Idx is 1-based
	lastPub map[uint64]uint64 // highest PubSeq logged per resumable SID
	conns   map[*hubConn]struct{}
	closed  bool
	done    chan struct{} // closed with closed
	wg      sync.WaitGroup

	queueDepth int           // out-queue capacity for conns accepted after a SetLimits
	writeT     time.Duration // per-frame write deadline; 0 disables
	flips      uint64        // overflow -> replay-mode flips (slow resumable conns)
	evictions  uint64        // severed conns: legacy overflow or write timeout
}

// DefaultHubWriteTimeout is the per-frame write deadline on hub
// connections. A subscriber that stops reading fills its TCP buffers;
// without a deadline its writer goroutine blocks in Encode forever and
// the connection is never reclaimed. Ten seconds is far above any
// healthy round trip, so only a genuinely frozen (or gray-failed)
// consumer trips it — and a resumable one redials and catches up from
// the log, losing nothing.
const DefaultHubWriteTimeout = 10 * time.Second

// HubStats is a snapshot of the hub's slow-consumer accounting.
type HubStats struct {
	Conns     int    // currently connected subscribers
	LogLen    int    // publications logged since the first resumable hello
	SlowFlips uint64 // resumable conns flipped to replay mode on queue overflow
	Evictions uint64 // conns severed (legacy overflow or write timeout)
}

// Stats reports the hub's slow-consumer counters.
func (h *HubServer) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HubStats{Conns: len(h.conns), LogLen: len(h.log), SlowFlips: h.flips, Evictions: h.evictions}
}

// hubConnBuf is the per-connection outbound queue for LIVE fan-out. A
// resumable client this far behind the live stream is flipped into
// replay mode (its writer streams the backlog from the log, paced by
// its own TCP connection); a legacy client is severed — it has no log
// index to resume from, so its stream was lost either way. Replay
// never flows through this queue, so a catch-up of any size is
// flow-controlled by TCP instead of racing a fixed buffer.
const hubConnBuf = 4096

// hubConn is one connected participant. The writer goroutine drains
// out so a slow or faulty connection never blocks the hub's fan-out.
//
// A connection is in one of two delivery modes, tracked under
// HubServer.mu. Live (the default): log entries are enqueued on out as
// they are published. Replaying (entered at hubHello, or when a
// resumable conn's live queue overflows): the conn is excluded from
// live fan-out and the writer streams log entries from cursor, at the
// pace the client's TCP connection accepts them; when the cursor
// catches the log tail the conn atomically rejoins live fan-out. Enqueue-side replay (the old design) raced the writer for
// queue slots while holding the hub lock, so a client whose backlog
// exceeded the queue was severed before its writer ever ran — a
// zero-progress reconnect storm under fan-out bursts.
type hubConn struct {
	conn      net.Conn
	out       chan any
	kick      chan struct{} // wakes the writer when replay is scheduled
	resumable bool          // upgraded by hubHello; set under HubServer.mu
	replaying bool          // excluded from live fan-out; writer owns catch-up
	cursor    uint64        // next log Idx the writer replays (1-based)
}

// ListenHub starts a TCP hub on addr.
func ListenHub(addr string) (*HubServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("broadcast: listen %s: %w", addr, err)
	}
	return serveHub(lis), nil
}

// serveHub starts a hub over an existing listener.
func serveHub(lis net.Listener) *HubServer {
	h := &HubServer{
		lis:        lis,
		lastPub:    make(map[uint64]uint64),
		conns:      make(map[*hubConn]struct{}),
		done:       make(chan struct{}),
		queueDepth: hubConnBuf,
		writeT:     DefaultHubWriteTimeout,
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h
}

// Addr returns the hub's bound address.
func (h *HubServer) Addr() string { return h.lis.Addr().String() }

func (h *HubServer) acceptLoop() {
	defer h.wg.Done()
	// A failed Accept (EMFILE, ECONNABORTED) is waited out, never the
	// end of the loop: a hub that stopped accepting would stall every
	// round on the members it can no longer reach. Only Close ends it.
	bo := backoff.Accept()
	for {
		conn, err := h.lis.Accept()
		if err != nil {
			if !bo.SleepCh(h.done) {
				return
			}
			continue
		}
		bo.Reset()
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			return
		}
		//lint:ignore boundedqueue depth is SetLimits-bounded, default hubConnBuf
		hc := &hubConn{conn: conn, out: make(chan any, h.queueDepth), kick: make(chan struct{}, 1)}
		h.conns[hc] = struct{}{}
		h.mu.Unlock()

		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			// One encoder per connection, for its reused frame buffer.
			enc := wire.NewEncoder(hc.conn)
			for {
				// Replay backlog first: stream log entries directly, one
				// write at a time, so catch-up is paced by the client's
				// TCP connection rather than the bounded live queue.
				for {
					h.mu.Lock()
					if !hc.replaying {
						h.mu.Unlock()
						break
					}
					// Frames already queued on out precede the cursor in
					// the total order (live entries enqueued before the
					// overflow flip, plus unordered acks) — drain them
					// before touching the log or the client would see the
					// replay jump ahead of its own backlog: a gap, which a
					// resumable client treats as a broken connection.
					select {
					case msg, ok := <-hc.out:
						h.mu.Unlock()
						if !ok {
							hc.conn.Close()
							return
						}
						if err := h.write(hc, enc, msg); err != nil {
							h.drop(hc)
							return
						}
						continue
					default:
					}
					if hc.cursor > uint64(len(h.log)) {
						// Caught up. Flip to live while still holding mu so
						// no publication can slip between the check and the
						// handoff — delivery stays gapless and ordered.
						hc.replaying = false
						h.mu.Unlock()
						break
					}
					e := h.log[hc.cursor-1]
					hc.cursor++
					h.mu.Unlock()
					if err := h.write(hc, enc, e); err != nil {
						h.drop(hc)
						return
					}
				}
				select {
				case msg, ok := <-hc.out:
					if !ok {
						hc.conn.Close()
						return
					}
					if err := h.write(hc, enc, msg); err != nil {
						h.drop(hc)
						// Drain nothing further: enqueues check conns
						// membership under mu, so a dropped conn stops
						// receiving frames and out is left to the GC.
						return
					}
				case <-hc.kick:
					// A hello or an overflow flip scheduled a replay; loop
					// back to stream it.
				}
			}
		}()

		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			defer h.drop(hc)
			dec := wire.NewDecoder(conn)
			for {
				msg, err := dec.Decode()
				if err != nil {
					return
				}
				// The log keeps the message past the next frame, and
				// a member may publish any registered type, windows
				// included.
				dec.Keep()
				switch m := msg.(type) {
				case *hubHello:
					h.upgrade(hc, m)
				case *hubPub:
					h.publishFrom(hc, m)
				case *Message:
					h.publishWire(0, 0, *m) // legacy publish: no dedupe possible
				}
			}
		}()
	}
}

// upgrade marks hc resumable, acks the session's publication watermark
// and schedules a replay of the log past the client's last-delivered
// index. The replay itself is streamed by the connection's writer
// goroutine (see acceptLoop): queueing it here, under mu, raced the
// writer for bounded queue slots and severed any client whose backlog
// exceeded the queue — before a single replayed byte reached it.
func (h *HubServer) upgrade(hc *hubConn, hello *hubHello) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.conns[hc]; !ok {
		return
	}
	hc.resumable, h.logging = true, true
	if hello.SID != 0 {
		if !h.enqueueFrameLocked(hc, &hubAck{LastPub: h.lastPub[hello.SID]}) {
			return
		}
	}
	hc.replaying = true
	hc.cursor = hello.Last + 1
	select {
	case hc.kick <- struct{}{}:
	default:
	}
}

// publishFrom handles a resumable client's publication and acks the
// session's watermark back on the same connection, whether the
// publication was logged, a duplicate, or an out-of-order straggler.
func (h *HubServer) publishFrom(hc *hubConn, p *hubPub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.publishLocked(p.SID, p.PubSeq, p.Msg)
	if p.SID != 0 {
		if _, ok := h.conns[hc]; ok {
			h.enqueueFrameLocked(hc, &hubAck{LastPub: h.lastPub[p.SID]})
		}
	}
}

// publishWire appends one publication to the log (deduplicating
// resumable resends) and fans it out. sid == 0 marks a legacy
// publisher with no session, logged unconditionally.
func (h *HubServer) publishWire(sid, pubSeq uint64, msg Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.publishLocked(sid, pubSeq, msg)
}

func (h *HubServer) publishLocked(sid, pubSeq uint64, msg Message) {
	if sid != 0 {
		// Log exactly the next sequence per session. Anything lower is a
		// resend of an already-logged publication; anything higher is an
		// out-of-order straggler from a connection that overlapped a
		// reconnect (the old conn's in-flight frame can be processed
		// after the new conn's resends) — dropping it is safe because
		// the client resends every unacked publication in order. A
		// high-water dedupe here would instead mark the skipped-over
		// sequences as "seen" and lose them forever.
		if pubSeq != h.lastPub[sid]+1 {
			return
		}
		h.lastPub[sid] = pubSeq
		h.logging = true // its hello may still be on the way
	}
	e := &hubSeq{Idx: uint64(len(h.log)) + 1, SID: sid, PubSeq: pubSeq, Msg: msg}
	if h.logging {
		//lint:ignore boundedqueue the log IS the resume contract: reconnecting clients replay the full history from their cursor, so retention is deliberate (memory scales with session traffic, not overload)
		h.log = append(h.log, e)
	}
	for hc := range h.conns {
		if hc.replaying {
			// The conn's writer is streaming the log and will reach this
			// entry through its cursor; enqueueing it too would deliver
			// it out of order ahead of the backlog.
			continue
		}
		h.enqueueLocked(hc, e)
	}
}

// enqueueLocked queues e for hc in the connection's wire format:
// resumable clients get the indexed entry, legacy clients the bare
// message. Reports whether the connection survived.
func (h *HubServer) enqueueLocked(hc *hubConn, e *hubSeq) bool {
	var frame any = e
	if !hc.resumable {
		frame = &e.Msg
	}
	return h.enqueueFrameLocked(hc, frame)
}

// write sends one frame on hc's connection under the hub's per-frame
// write deadline. A consumer that stops reading fills its
// TCP buffers; the deadline turns the otherwise-eternal blocked Encode
// into an ordinary connection error, and the caller drops the conn — a
// resumable client redials and catches up from the log.
func (h *HubServer) write(hc *hubConn, enc *wire.Encoder, msg any) error {
	h.mu.Lock()
	t := h.writeT
	h.mu.Unlock()
	if t > 0 {
		_ = hc.conn.SetWriteDeadline(time.Now().Add(t))
	}
	err := enc.Encode(msg)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			h.mu.Lock()
			h.evictions++
			h.mu.Unlock()
		}
	}
	return err
}

// enqueueFrameLocked queues one raw frame, reporting whether the
// connection survived. A full queue flips a resumable connection into
// replay mode — it stops receiving live fan-out and its writer streams
// the backlog straight from the log, rejoining live delivery when the
// cursor catches the tail. Only a legacy connection (no log index to
// resume from) is severed outright. Callers looping over multiple
// frames must stop on severance: the outbound channel is closed and
// another send would panic.
func (h *HubServer) enqueueFrameLocked(hc *hubConn, frame any) bool {
	if _, ok := h.conns[hc]; !ok {
		return false
	}
	select {
	case hc.out <- frame:
		return true
	default:
	}
	if e, ok := frame.(*hubSeq); ok && hc.resumable {
		// The overflowed entry becomes the replay cursor: everything
		// before it is already queued on out (the writer drains that
		// first), so delivery stays gapless. No memory is pinned beyond
		// the log the hub keeps anyway.
		hc.replaying = true
		hc.cursor = e.Idx
		h.flips++
		select {
		case hc.kick <- struct{}{}:
		default:
		}
		return true
	}
	if _, ok := frame.(*hubAck); ok && hc.resumable {
		// Dropping an ack is safe: it is a watermark, not a log entry.
		// The client keeps resending its unacked publications and the
		// hub deduplicates; a later ack (or seeing its own publication
		// replayed) prunes the backlog.
		return true
	}
	h.evictions++
	delete(h.conns, hc)
	close(hc.out)
	hc.conn.Close()
	return false
}

func (h *HubServer) drop(hc *hubConn) {
	h.mu.Lock()
	if _, ok := h.conns[hc]; ok {
		delete(h.conns, hc)
		close(hc.out)
	}
	h.mu.Unlock()
	hc.conn.Close()
}

// Close shuts the hub down.
func (h *HubServer) Close() error {
	h.mu.Lock()
	if !h.closed {
		close(h.done)
	}
	h.closed = true
	for hc := range h.conns {
		close(hc.out)
		hc.conn.Close()
	}
	h.conns = map[*hubConn]struct{}{}
	h.mu.Unlock()
	return h.lis.Close()
}

// DialHub joins a TCP hub as a participant.
func DialHub(addr string) (Channel, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("broadcast: dial %s: %w", addr, err)
	}
	c := &tcpChannel{conn: conn, enc: wire.NewEncoder(conn), ch: make(chan Message, chanBuf)}
	go c.readLoop()
	return c, nil
}

type tcpChannel struct {
	conn net.Conn
	ch   chan Message

	mu     sync.Mutex // guards writes and close
	enc    *wire.Encoder
	closed bool
}

func (c *tcpChannel) readLoop() {
	defer close(c.ch)
	dec := wire.NewDecoder(c.conn)
	for {
		msg, err := dec.Decode()
		if err != nil {
			return
		}
		dec.Keep() // the consumer holds the message past the next frame
		m, ok := msg.(*Message)
		if !ok {
			continue
		}
		select {
		case c.ch <- *m:
		default:
			return // hopelessly behind; sever
		}
	}
}

func (c *tcpChannel) Publish(msg Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.enc.Encode(&msg)
}

func (c *tcpChannel) Recv() <-chan Message { return c.ch }

func (c *tcpChannel) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}
