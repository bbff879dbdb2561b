// Package wire implements the framing and codec used on every network
// connection: length-prefixed, gob-encoded envelopes with a hard size
// limit protecting against hostile peers (the server is untrusted,
// after all).
//
// Every connection (Conn, Serve, the broadcast hub) runs the streaming
// codec (Encoder/Decoder): frames are [4-byte big-endian length][gob
// bytes] over one persistent gob stream per connection direction, so
// type descriptors cross the wire once per connection instead of once
// per message — and, just as important, decoder engines are compiled
// once per connection instead of once per message. Each frame is
// assembled into a reused per-connection buffer and written
// header+body in a single syscall.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// MaxMessage is the largest accepted frame (16 MiB) — far above any
// legitimate VO or content blob in this system, far below a memory
// exhaustion attack. The streaming decoder additionally enforces it
// per decoded message, so a hostile peer cannot smuggle an unbounded
// gob value across many small frames.
const MaxMessage = 16 << 20

// budgetFlag marks a streaming frame header that carries a deadline
// budget. MaxMessage fits in 25 bits, so the top bits of the length
// word are guaranteed zero in every frame ever written before budgets
// existed — old streams parse identically, and a flagged frame sent to
// a pre-budget reader fails its length check loudly instead of
// misparsing. When the flag is set, a 4-byte big-endian budget in
// microseconds follows the length word (see Encoder.EncodeBudget).
const budgetFlag = 1 << 31

// maxBudgetUS caps an encoded budget at what fits in 32 bits of
// microseconds (~71 minutes) — far beyond any request deadline this
// system issues.
const maxBudgetUS = 1<<32 - 1

// ErrTooLarge is returned for frames exceeding MaxMessage.
var ErrTooLarge = errors.New("wire: message exceeds size limit")

// ErrDeadlineExceeded marks a request refused (by either end) because
// its propagated deadline budget had already expired. It is a
// *delivered* verdict when it comes back as an ErrorReply — it wraps
// ErrRemote in that case — and resilient clients must not retry it:
// the client's own caller has given up, so retrying only burns server
// capacity on work nobody will read.
var ErrDeadlineExceeded = errors.New("wire: deadline exceeded")

// ErrOverloaded marks a request shed by server admission control
// before any protocol state was touched: not applied, not cached, no
// audit obligation created. A resilient client may fail over to
// another endpoint (the refusal is atomic, so re-presenting the same
// session sequence elsewhere is safe) but must not hammer the same
// endpoint with immediate retries.
var ErrOverloaded = errors.New("wire: server overloaded")

// envelope wraps the payload so gob can transport interface values.
type envelope struct {
	Payload any
}

// ErrorReply carries a server-side error back to the caller. Code
// classifies refusals the client must react to structurally rather
// than textually; 0 (the gob zero value, omitted on the wire, so seed
// encodings are byte-identical) means "plain application error".
type ErrorReply struct {
	Msg  string
	Code int
}

// Wire error codes carried in ErrorReply.Code.
const (
	CodeDeadlineExceeded = 1
	CodeOverloaded       = 2
)

// ErrCode returns the wire code for err: CodeDeadlineExceeded or
// CodeOverloaded for the typed refusals, 0 otherwise.
func ErrCode(err error) int {
	switch {
	case errors.Is(err, ErrDeadlineExceeded):
		return CodeDeadlineExceeded
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	}
	return 0
}

// ErrRemote marks an error that was *delivered by the server* as an
// ErrorReply — the request reached the handler and was answered.
// Resilient clients must not retry these: the failure is the
// application's verdict, not the network's. Transport-level failures
// (reset, timeout, truncation) never carry this mark.
var ErrRemote = errors.New("wire: remote error")

// remoteError converts a received ErrorReply into an error wrapping
// ErrRemote while preserving the server's message text (callers match
// on substrings of it). Typed refusal codes additionally splice in
// their sentinel so errors.Is works across the wire.
func remoteError(e *ErrorReply) error {
	var sentinel error
	switch e.Code {
	case CodeDeadlineExceeded:
		sentinel = ErrDeadlineExceeded
	case CodeOverloaded:
		sentinel = ErrOverloaded
	}
	return fmt.Errorf("wire: server: %s%w", e.Msg, errMarker{also: sentinel})
}

// errMarker splices ErrRemote (and optionally a typed refusal
// sentinel) into a formatted error without altering its message text.
type errMarker struct{ also error }

func (errMarker) Error() string { return "" }
func (m errMarker) Is(target error) bool {
	return target == ErrRemote || (m.also != nil && target == m.also)
}

// SessionRequest is the at-most-once envelope a resilient client wraps
// around every request. SID identifies the client session (a random
// nonzero 64-bit nonce), Seq increments per logical call. A
// session-aware server deduplicates on (SID, Seq): a retried request
// whose original reached the handler gets the cached response instead
// of a second application — the property that makes retry safe for
// non-idempotent protocol operations.
type SessionRequest struct {
	SID uint64
	Seq uint64
	Req any
}

func init() {
	gob.Register(&ErrorReply{})
	gob.Register(&SessionRequest{})
}

// maxPooledBuf caps the capacity of a frame-assembly buffer an Encoder
// keeps between messages so a single giant content blob does not pin
// memory forever.
const maxPooledBuf = 1 << 20

var hdrPlaceholder [8]byte

// Size returns the encoded size of msg as the first frame of a fresh
// connection, type descriptors included — used by experiments that
// report wire bytes (VO sizes, sync traffic). It is deliberately a
// per-message figure that does not depend on what else a connection
// has carried.
func Size(msg any) (int, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&envelope{Payload: msg}); err != nil {
		return 0, err
	}
	return buf.Len() + 4, nil
}

// Encoder writes framed messages into one persistent gob stream. Not
// safe for concurrent use; callers serialize (Conn does, Serve is a
// single loop).
type Encoder struct {
	w      io.Writer
	buf    bytes.Buffer // reused frame-assembly buffer
	enc    *gob.Encoder
	broken error
}

// NewEncoder returns a streaming encoder over w.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: w}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// Encode frames and writes one message, header and body in a single
// Write call. An encode error poisons the stream (the gob encoder's
// descriptor bookkeeping may no longer match what reached the peer),
// so every subsequent Encode fails until the connection is replaced.
func (e *Encoder) Encode(msg any) error {
	return e.EncodeBudget(msg, 0)
}

// EncodeBudget is Encode with a deadline budget stamped into the frame
// header: the remaining time the *sender's* caller is still willing to
// wait, measured at encode time. Each hop re-derives its own remaining
// budget before forwarding, which is what decrements the budget across
// hops without any clock synchronization. budget <= 0 encodes a plain
// frame (identical bytes to Encode).
func (e *Encoder) EncodeBudget(msg any, budget time.Duration) error {
	if e.broken != nil {
		return e.broken
	}
	hdr := 4
	if budget > 0 {
		hdr = 8
	}
	e.buf.Reset()
	e.buf.Write(hdrPlaceholder[:hdr])
	if err := e.enc.Encode(&envelope{Payload: msg}); err != nil {
		e.broken = fmt.Errorf("wire: stream poisoned by encode of %T: %w", msg, err)
		return fmt.Errorf("wire: encode %T: %w", msg, err)
	}
	body := e.buf.Len() - hdr
	if body > MaxMessage {
		err := fmt.Errorf("%w: %d bytes", ErrTooLarge, body)
		e.broken = err
		return err
	}
	b := e.buf.Bytes()
	word := uint32(body)
	if budget > 0 {
		us := budget.Microseconds()
		if us < 1 {
			us = 1 // a set flag always carries a nonzero budget
		}
		if us > maxBudgetUS {
			us = maxBudgetUS
		}
		word |= budgetFlag
		binary.BigEndian.PutUint32(b[4:8], uint32(us))
	}
	binary.BigEndian.PutUint32(b[:4], word)
	if _, err := e.w.Write(b); err != nil {
		err = fmt.Errorf("wire: write frame: %w", err)
		e.broken = err
		return err
	}
	if e.buf.Cap() > maxPooledBuf {
		e.buf = bytes.Buffer{} // drop oversized scratch, keep the stream
	}
	return nil
}

// frameReader feeds a gob.Decoder the concatenated bodies of incoming
// frames, enforcing MaxMessage per frame (header check) and per decoded
// message (budget, reset by Decoder.Decode).
type frameReader struct {
	r        io.Reader
	remain   int    // unread bytes of the current frame
	budget   int    // bytes the current Decode may still consume
	deadline uint32 // microsecond budget from the current message's header, 0 = none
}

func (fr *frameReader) Read(p []byte) (int, error) {
	if fr.remain == 0 {
		var hdr [4]byte
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			return 0, err // io.EOF at a frame boundary = clean shutdown
		}
		word := binary.BigEndian.Uint32(hdr[:])
		if word&budgetFlag != 0 {
			var bhdr [4]byte
			if _, err := io.ReadFull(fr.r, bhdr[:]); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return 0, err
			}
			fr.deadline = binary.BigEndian.Uint32(bhdr[:])
			word &^= budgetFlag
		}
		if word > MaxMessage {
			return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, word)
		}
		fr.remain = int(word)
	}
	if fr.budget <= 0 {
		return 0, fmt.Errorf("%w: message spans frames past limit", ErrTooLarge)
	}
	if len(p) > fr.remain {
		p = p[:fr.remain]
	}
	if len(p) > fr.budget {
		p = p[:fr.budget]
	}
	n, err := fr.r.Read(p)
	fr.remain -= n
	fr.budget -= n
	if err == io.EOF && fr.remain > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// Decoder reads framed messages from one persistent gob stream. Not
// safe for concurrent use.
type Decoder struct {
	fr  *frameReader
	dec *gob.Decoder
}

// NewDecoder returns a streaming decoder over r. The decoder owns the
// read half of the stream: it buffers beneath the frame layer so a
// header and its body usually cost one syscall, not two.
func NewDecoder(r io.Reader) *Decoder {
	if _, ok := r.(*bufio.Reader); !ok {
		r = bufio.NewReader(r)
	}
	fr := &frameReader{r: r}
	return &Decoder{fr: fr, dec: gob.NewDecoder(fr)}
}

// Decode reads the next message. It returns io.EOF when the stream
// ends cleanly at a frame boundary.
func (d *Decoder) Decode() (any, error) {
	d.fr.budget = MaxMessage
	d.fr.deadline = 0
	var env envelope
	if err := d.dec.Decode(&env); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	return env.Payload, nil
}

// Budget returns the deadline budget carried by the last decoded
// message's frame header, or 0 if it carried none. The value is the
// remaining time the peer's caller was willing to wait, measured when
// the peer encoded the frame; the receiver should anchor its own
// deadline at decode time (time already spent on the wire then counts
// against the sender, which is the conservative direction).
func (d *Decoder) Budget() time.Duration {
	return time.Duration(d.fr.deadline) * time.Microsecond
}

// Conn is a synchronous request/response client over any stream,
// using the streaming codec. It serializes concurrent callers.
type Conn struct {
	mu  sync.Mutex
	enc *Encoder
	dec *Decoder
	c   io.Closer // optional
}

// NewConn wraps a stream with the streaming codec. If rw also
// implements io.Closer, Close closes it.
func NewConn(rw io.ReadWriter) *Conn {
	c, _ := rw.(io.Closer)
	return &Conn{enc: NewEncoder(rw), dec: NewDecoder(rw), c: c}
}

// Call sends req and waits for the reply. A server-side ErrorReply is
// converted into an error.
func (c *Conn) Call(req any) (any, error) {
	return c.CallBudget(req, 0)
}

// CallBudget is Call with a deadline budget propagated in the frame
// header: the server sheds the request (typed ErrDeadlineExceeded,
// before touching state) if the budget has expired by the time the
// request is dispatched. budget <= 0 sends a plain frame.
func (c *Conn) CallBudget(req any, budget time.Duration) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.EncodeBudget(req, budget); err != nil {
		return nil, err
	}
	resp, err := c.dec.Decode()
	if err != nil {
		return nil, err
	}
	if e, ok := resp.(*ErrorReply); ok {
		return nil, remoteError(e)
	}
	return resp, nil
}

// Close closes the underlying stream when possible.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// Serve answers requests on a stream until it closes: each incoming
// message is passed to handler along with the deadline budget carried
// in its frame header (0 if none), anchored at decode time, and the
// result (or an ErrorReply) is written back. Typed refusals
// (ErrDeadlineExceeded, ErrOverloaded) returned by the handler cross
// the wire as coded ErrorReplies so the client can match them with
// errors.Is. Returns nil on clean EOF.
func Serve(rw io.ReadWriter, handler func(req any, budget time.Duration) (any, error)) error {
	enc, dec := NewEncoder(rw), NewDecoder(rw)
	for {
		req, err := dec.Decode()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		resp, err := handler(req, dec.Budget())
		if err != nil {
			resp = &ErrorReply{Msg: err.Error(), Code: ErrCode(err)}
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
}
