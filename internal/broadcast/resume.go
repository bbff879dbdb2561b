package broadcast

import (
	"fmt"
	"net"
	"sync"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/wire"
)

// HandshakeTimeout bounds the hello exchange on each (re)connect: the
// hello write and the wait for the hub's first frame both carry this
// deadline. Without it, a hub that accepts the TCP connection but
// never answers (half-up process, black-holing middlebox) parks the
// member in a blocking read forever — the connection looks "up", so
// the redial loop never runs and the member silently stops receiving
// broadcasts. A timeout here is an ordinary retryable connection
// failure: tear down, back off, redial.
var HandshakeTimeout = 5 * time.Second

// DialHubResume joins a TCP hub with resumable delivery: if the
// connection drops, the channel redials with bounded backoff, tells
// the hub the last log index it delivered, and the hub replays
// everything after it. Consumers observe the hub's FIFO total order
// with no gaps and no duplicates across any number of reconnects —
// the delivery contract the sync barrier assumes. Publications made
// while disconnected are buffered and resent until the hub's log
// acknowledges them (the publisher sees its own message come back).
func DialHubResume(addr string) Channel {
	return DialHubResumeFunc(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	})
}

// DialHubResumeFunc is DialHubResume over a custom dialer — how the
// fault harness interposes flaky connections.
func DialHubResumeFunc(dial func() (net.Conn, error)) Channel {
	c := &resumeChannel{
		dial: dial,
		ch:   make(chan Message, chanBuf),
		done: make(chan struct{}),
		kick: make(chan struct{}, 1),
		sid:  wire.RandomSID(),
	}
	go c.run()
	return c
}

type resumeChannel struct {
	dial func() (net.Conn, error)
	ch   chan Message
	done chan struct{}
	kick chan struct{} // wakes the publish pump
	sid  uint64

	// wmu serializes whole frames onto the live connection: Publish and
	// the reconnect loop's hello/resend would otherwise interleave
	// bytes and corrupt the stream.
	wmu sync.Mutex

	mu         sync.Mutex
	conn       net.Conn      // current connection, nil while down
	ackReady   chan struct{} // closed when this conn's first ack arrives
	closed     bool
	pubSeq     uint64
	pending    []*hubPub // published, not yet seen back in the log
	lastIdx    uint64    // last log index delivered to ch
	reconnects uint64
}

// send writes one frame onto the connection under the write lock.
func (c *resumeChannel) send(enc *wire.Encoder, msg any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return enc.Encode(msg)
}

// Reconnects reports how many times the channel has had to redial.
func (c *resumeChannel) Reconnects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// run is the connection lifecycle: dial, hello, resend unacked
// publications, pump the log into ch; on any error, tear down and
// redial until Close.
func (c *resumeChannel) run() {
	defer close(c.ch)
	bo := backoff.New(backoff.Policy{Min: 10 * time.Millisecond, Max: 2 * time.Second}, backoff.NewSource())
	first := true
	for {
		conn, err := c.dial()
		if err != nil {
			if !bo.SleepCh(c.done) {
				return
			}
			continue
		}
		// Install the connection first: a Publish that lands before the
		// hello is fine (the hub handles publications from any
		// connection state); what must not happen is two writers
		// interleaving frames, which send() prevents.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conn = conn
		if !first {
			c.reconnects++
		}
		first = false
		last := c.lastIdx
		c.mu.Unlock()

		// One encoder per connection, for its reused frame buffer.
		enc := wire.NewEncoder(conn)

		// The hello exchange runs under the handshake deadline on both
		// directions; a hub that accepted but never engages costs one
		// timeout, not a goroutine forever.
		_ = conn.SetWriteDeadline(time.Now().Add(HandshakeTimeout))
		err = c.send(enc, &hubHello{SID: c.sid, Last: last})
		if err == nil {
			err = conn.SetWriteDeadline(time.Time{})
		}
		if err == nil {
			// Armed until the first frame arrives; readLoop disarms it.
			err = conn.SetReadDeadline(time.Now().Add(HandshakeTimeout))
		}
		if err != nil {
			c.mu.Lock()
			c.conn = nil
			c.mu.Unlock()
			conn.Close()
			if !bo.SleepCh(c.done) {
				return
			}
			continue
		}
		bo.Reset()

		// The pump resends unacked publications and carries new ones,
		// concurrently with the read loop — so acks coming back prune
		// the backlog even while resending, and a connection that dies
		// mid-resend has still made durable progress. It holds its first
		// send until the hub's hello-ack reports the watermark: blasting
		// the whole backlog blind would spend the connection's life
		// re-sending publications the hub already has.
		ackReady := make(chan struct{})
		c.mu.Lock()
		c.ackReady = ackReady
		c.mu.Unlock()
		go c.pump(conn, enc, ackReady)
		err = c.readLoop(conn)
		c.mu.Lock()
		c.conn = nil
		closed := c.closed
		c.mu.Unlock()
		conn.Close()
		c.kickPump() // unblock the pump so it notices the dead conn
		if closed || err == errChannelClosed {
			return
		}
	}
}

func (c *resumeChannel) kickPump() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// pump is the sole writer of publications on one connection: it sends
// every pending (unacked) publication in pubSeq order, then waits for
// more, preserving per-publisher FIFO. It exits when the connection is
// replaced or the channel closes. Re-sending an already-logged
// publication is harmless (the hub deduplicates on PubSeq).
func (c *resumeChannel) pump(conn net.Conn, enc *wire.Encoder, ackReady chan struct{}) {
	// Wait for the hub's hello-ack (which prunes already-logged
	// publications) before the first send.
	for waiting := true; waiting; {
		select {
		case <-ackReady:
			waiting = false
		case <-c.done:
			return
		case <-c.kick:
			c.mu.Lock()
			closed, cur := c.closed, c.conn == conn
			c.mu.Unlock()
			if closed {
				return
			}
			if !cur {
				c.kickPump() // forward to the replacement conn's pump
				return
			}
		}
	}
	var lastSent uint64
	for {
		c.mu.Lock()
		if c.closed || c.conn != conn {
			stale := !c.closed
			c.mu.Unlock()
			if stale {
				// Forward any wakeup we may have swallowed to the pump
				// of the replacement connection.
				c.kickPump()
			}
			return
		}
		var p *hubPub
		for _, q := range c.pending {
			if q.PubSeq > lastSent {
				p = q
				break
			}
		}
		c.mu.Unlock()
		if p == nil {
			select {
			case <-c.kick:
			case <-c.done:
				return
			}
			continue
		}
		if err := c.send(enc, p); err != nil {
			return
		}
		lastSent = p.PubSeq
	}
}

// errChannelClosed distinguishes "consumer went away" from "network
// failed" inside readLoop.
var errChannelClosed = fmt.Errorf("broadcast: channel closed")

// readLoop pumps hub log entries into ch until the connection or the
// channel dies. Delivery blocks — a resumable channel never drops a
// message; backpressure is the consumer's problem, exactly as with the
// in-process hub's deep buffer.
func (c *resumeChannel) readLoop(conn net.Conn) error {
	dec := wire.NewDecoder(conn)
	handshake := true
	for {
		msg, err := dec.Decode()
		if err != nil {
			return err
		}
		dec.Keep() // the consumer holds the message past the next frame
		if handshake {
			// First frame: the hub is engaged; drop back to unbounded
			// reads (silence on an idle hub is normal from here on).
			handshake = false
			_ = conn.SetReadDeadline(time.Time{})
		}
		var e *hubSeq
		switch m := msg.(type) {
		case *hubSeq:
			e = m
		case *hubAck:
			// The hub has durably logged every publication up to
			// LastPub: stop resending them. This is what breaks the
			// flaky-link livelock where resend traffic starves the
			// reads that would otherwise ack via log delivery.
			c.pruneAcked(m.LastPub)
			c.mu.Lock()
			if c.ackReady != nil {
				close(c.ackReady)
				c.ackReady = nil
			}
			c.mu.Unlock()
			continue
		default:
			// A frame from the pre-upgrade window (the hub fanned it out
			// before processing our hello). The replay that follows the
			// hello is authoritative; delivering this copy too would
			// duplicate it.
			continue
		}
		c.mu.Lock()
		if e.Idx <= c.lastIdx {
			c.mu.Unlock()
			continue // replayed entry we already delivered
		}
		if e.Idx != c.lastIdx+1 {
			// The hub's log is gapless and per-connection delivery is
			// ordered, so a skip means this connection is broken (or the
			// hub reordered — either way, frames are missing). Accepting
			// it would advance lastIdx past entries we never saw and the
			// dedupe above would then drop them forever when they do
			// arrive. Tear the connection down instead: the redial's
			// hello carries lastIdx and the hub replays the gap.
			c.mu.Unlock()
			return fmt.Errorf("broadcast: hub log gap: got idx %d, want %d", e.Idx, c.lastIdx+1)
		}
		c.lastIdx = e.Idx
		c.mu.Unlock()
		if e.SID == c.sid {
			// Our own publication came back: it is in the log.
			c.pruneAcked(e.PubSeq)
		}
		select {
		case c.ch <- e.Msg:
		case <-c.done:
			return errChannelClosed
		}
	}
}

// pruneAcked drops pending publications with PubSeq <= acked.
func (c *resumeChannel) pruneAcked(acked uint64) {
	c.mu.Lock()
	keep := c.pending[:0]
	for _, p := range c.pending {
		if p.PubSeq > acked {
			keep = append(keep, p)
		}
	}
	c.pending = keep
	c.mu.Unlock()
}

// Publish queues msg durably (until the hub logs it) and sends it on
// the live connection if there is one; if not, the next reconnect
// resends it. The hub deduplicates on (SID, PubSeq), so resending a
// publication whose first copy did arrive is harmless.
func (c *resumeChannel) Publish(msg Message) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.pubSeq++
	p := &hubPub{SID: c.sid, PubSeq: c.pubSeq, Msg: msg}
	//lint:ignore boundedqueue pruned by hub acks (pruneAcked); grows only across a disconnect window, bounded by this one client's publish rate over the outage
	c.pending = append(c.pending, p)
	c.mu.Unlock()
	c.kickPump()
	return nil
}

func (c *resumeChannel) Recv() <-chan Message { return c.ch }

func (c *resumeChannel) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	close(c.done)
	if conn != nil {
		conn.Close()
	}
	return nil
}
