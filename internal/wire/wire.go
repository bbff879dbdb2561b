// Package wire implements the framing and codec used on every network
// connection and inside both journals: one self-contained binary frame
// per message, with a hard size limit protecting against hostile peers
// (the server is untrusted, after all).
//
// A frame is
//
//	[4-byte big-endian word] [4-byte budget, if flagged] [1-byte tag] [body]
//
// The word's low 25 bits are the length of tag + body (at most
// MaxMessage), bit 31 flags a deadline budget, bit 30 marks this frame
// format. The tag names the message type in the one tag table (see
// Register); the body is that type's fixed layout, written with the
// internal/binenc primitives. There is no per-connection stream state:
// the first frame of a connection and the millionth are the same
// bytes, and Size is header + tag + body.
//
// Every value has one encoding and the Decoder refuses every other —
// non-minimal integers, counts the frame cannot back, unknown tags,
// trailing bytes — so a frame it accepts re-encodes byte-identically.
//
// Aliasing rule: a decoded message's byte fields (answers, VO
// encodings, put values, content blobs) are windows onto the frame it
// arrived in, and the Decoder reads every frame into one buffer it
// reuses. A message is therefore valid until the next Decode on its
// Decoder, unless the caller takes its frame with Keep first: Conn
// keeps every response, so a client's response owns its frame; Serve
// keeps none, so a request is valid until its reply is on the wire and
// a handler that holds request bytes past that copies them. The Encoder
// assembles frames in a per-connection buffer it reuses and writes
// header and body in a single Write; that buffer never escapes.
package wire

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"trustedcvs/internal/binenc"
)

// MaxMessage is the largest accepted frame body (16 MiB) — far above
// any legitimate VO or content blob in this system, far below a memory
// exhaustion attack. The Decoder checks it on the header, before it
// allocates anything.
const MaxMessage = 16 << 20

// budgetFlag marks a frame header that carries a deadline budget: a
// 4-byte big-endian budget in microseconds follows the length word
// (see Encoder.EncodeBudget).
const budgetFlag = 1 << 31

// formatFlag marks a frame of this format. MaxMessage fits in 25 bits,
// so the bit is zero in every frame the gob-era codec wrote: a reader
// of that era fails its length check loudly on a frame that carries
// it, and this Decoder refuses a frame without it with ErrFormat
// instead of misparsing a gob stream as a tag and a body.
const formatFlag = 1 << 30

// readStep bounds how far ahead of the bytes actually received the
// Decoder allocates: a header declaring MaxMessage buys readStep, not
// 16 MiB, until the peer has delivered that much.
const readStep = 64 << 10

// maxBudgetUS caps an encoded budget at what fits in 32 bits of
// microseconds (~71 minutes) — far beyond any request deadline this
// system issues.
const maxBudgetUS = 1<<32 - 1

// ErrTooLarge is returned for frames exceeding MaxMessage.
var ErrTooLarge = errors.New("wire: message exceeds size limit")

// ErrFormat is returned for a frame header without the format bit: the
// peer speaks the gob-era codec (or is not a peer at all). Client and
// server upgrade together.
var ErrFormat = errors.New("wire: frame is not in this binary's format (mixed client and server versions?)")

// ErrMalformed is returned (wrapped) for a frame whose body is not the
// canonical encoding of one registered message: unknown tag, truncated
// or overlong body, a count the body cannot back, a non-minimal
// integer.
var ErrMalformed = binenc.ErrMalformed

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

// ErrorReply carries a server-side error back to the caller. Code
// classifies refusals the client must react to structurally rather
// than textually; 0 means "plain application error".
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

// RandomSID draws a random nonzero session id: a resilient client's SID,
// and the session a resumable hub member presents on every reconnect.
func RandomSID() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			//lint:ignore panicfree entropy exhaustion is unrecoverable and not attacker-triggerable; no request bytes are parsed here
			panic(fmt.Sprintf("wire: session id entropy: %v", err))
		}
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

var hdrPlaceholder [8]byte

// Size returns the encoded size of msg as a budget-less frame: header,
// tag and body. Experiments use it to report wire bytes (VO sizes, sync
// traffic); no frame depends on what else a connection has carried.
func Size(msg any) (int, error) {
	b, err := Append(nil, msg)
	if err != nil {
		return 0, err
	}
	return 4 + len(b), nil
}

// Encoder writes framed messages. Not safe for concurrent use; callers
// serialize (Conn does, Serve is a single loop).
type Encoder struct {
	w      io.Writer
	buf    []byte // reused frame-assembly buffer
	broken error
}

// NewEncoder returns an encoder over w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode frames and writes one message, header and body in a single
// Write call. A message that cannot be encoded (an unregistered type,
// a body over MaxMessage) is refused before anything is written, so
// the stream stays usable; a failed Write may have left part of a frame
// on the wire, so it fails every later Encode until the connection is
// replaced.
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
	b, err := Append(append(e.buf, hdrPlaceholder[:hdr]...), msg)
	if err != nil {
		return fmt.Errorf("wire: encode %T: %w", msg, err)
	}
	e.buf = binenc.Recycle(b)
	body := len(b) - hdr
	if body > MaxMessage {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, body)
	}
	word := uint32(body) | formatFlag
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
		e.broken = fmt.Errorf("wire: write frame: %w", err)
		return e.broken
	}
	return nil
}

// Decoder reads framed messages. Not safe for concurrent use.
type Decoder struct {
	r      *bufio.Reader
	rd     binenc.Reader // reset per frame, so decoding allocates no reader
	buf    []byte        // the frame buffer the next frame is read into; nil after Keep
	hdr    [4]byte
	budget uint32 // microsecond budget from the last frame's header, 0 = none
}

// NewDecoder returns a decoder over r. The decoder owns the read half
// of the stream: it buffers beneath the frame layer so a header and
// its body usually cost one syscall, not two.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Decoder{r: br}
}

// Decode reads the next message into the Decoder's frame buffer, which
// the previous message's windows then no longer own (see Keep). It
// returns io.EOF when the stream ends cleanly at a frame boundary and
// io.ErrUnexpectedEOF (wrapped) when it ends anywhere inside a frame.
// The input is the untrusted peer's: every refusal is ErrFormat,
// ErrTooLarge or ErrMalformed.
func (d *Decoder) Decode() (any, error) {
	poison(d.buf)
	d.budget = 0
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	word := binary.BigEndian.Uint32(d.hdr[:])
	if word&formatFlag == 0 {
		return nil, ErrFormat
	}
	if word&budgetFlag != 0 {
		if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
			return nil, fmt.Errorf("wire: read frame budget: %w", noEOF(err))
		}
		d.budget = binary.BigEndian.Uint32(d.hdr[:])
	}
	n := word &^ (budgetFlag | formatFlag)
	if n > MaxMessage {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if word&budgetFlag != 0 && d.budget == 0 {
		return nil, fmt.Errorf("%w: budget flag over a zero budget", ErrMalformed)
	}
	body, err := d.readBody(int(n))
	if err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", noEOF(err))
	}
	d.rd.Reset(body)
	msg := Read(&d.rd)
	err = d.rd.Close() // trailing bytes are refused
	d.rd.Reset(nil)
	if err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	return msg, nil
}

// Keep hands the last decoded message's frame to the caller: its
// windows stay valid for as long as the message lives, and the next
// Decode reads into a new buffer. It is the one way a message outlives
// the next Decode.
func (d *Decoder) Keep() { d.buf = nil }

// readBody reads an n-byte frame body into the Decoder's frame buffer,
// which never grows past readStep: a buffer too small for the body's
// first readStep bytes is replaced by one at least twice its size
// (exactly that size when there was none, so a kept frame holds no
// slack). A body longer than readStep continues in buffers of its own,
// each at most doubling what the peer has already delivered, so one
// large frame pins nothing once its message is dropped.
func (d *Decoder) readBody(n int) ([]byte, error) {
	first := min(n, readStep)
	if cap(d.buf) < first {
		d.buf = make([]byte, first, max(first, min(2*cap(d.buf), readStep)))
	}
	body := d.buf[:first]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return nil, err
	}
	for len(body) < n {
		got := len(body)
		grown := make([]byte, min(n, 2*got))
		copy(grown, body)
		if _, err := io.ReadFull(d.r, grown[got:]); err != nil {
			return nil, err
		}
		body = grown
	}
	return body, nil
}

// noEOF turns an EOF inside a frame into io.ErrUnexpectedEOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Budget returns the deadline budget carried by the last decoded
// message's frame header, or 0 if it carried none. The value is the
// remaining time the peer's caller was willing to wait, measured when
// the peer encoded the frame; the receiver should anchor its own
// deadline at decode time (time already spent on the wire then counts
// against the sender, which is the conservative direction).
func (d *Decoder) Budget() time.Duration {
	return time.Duration(d.budget) * time.Microsecond
}

// Conn is a synchronous request/response client over any stream. It
// serializes concurrent callers.
type Conn struct {
	mu  sync.Mutex
	enc *Encoder
	dec *Decoder
	c   io.Closer // optional
}

// NewConn wraps a stream with the codec. If rw also implements
// io.Closer, Close closes it.
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
	c.dec.Keep() // the response outlives the next call
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
// in its frame header (0 if none), anchored at decode time, and a
// reply function that writes the result (or an ErrorReply) back.
// Every request is decoded into the connection's one frame buffer: it
// is valid until handler returns, and a handler that keeps any of its
// bytes longer copies them. handler calls reply exactly once and
// returns what it returned, so
// whatever the handler holds for the request — in-flight accounting, a
// lock — can last until the response frame is on the wire. Typed
// refusals (ErrDeadlineExceeded, ErrOverloaded) passed to reply cross
// the wire as coded ErrorReplies so the client can match them with
// errors.Is. Returns nil on clean EOF.
func Serve(rw io.ReadWriter, handler func(req any, budget time.Duration, reply func(resp any, err error) error) error) error {
	enc, dec := NewEncoder(rw), NewDecoder(rw)
	reply := func(resp any, err error) error {
		if err != nil {
			resp = &ErrorReply{Msg: err.Error(), Code: ErrCode(err)}
		}
		return enc.Encode(resp)
	}
	for {
		req, err := dec.Decode()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if err := handler(req, dec.Budget(), reply); err != nil {
			return err
		}
	}
}
