// Package binenc holds the primitives of the repo's fixed-layout binary
// encodings — canonical answers (internal/vdb, internal/cvs), the flat
// verification object (internal/merkle) and every wire message and
// journal record (internal/wire): append-style writers and a
// bounds-checked Reader for input that arrives from the untrusted
// server.
//
// Every value has exactly one encoding. Integers are minimal-length
// uvarints (signed ones zigzag first), booleans are the bytes 0 and 1,
// byte strings are a uvarint length followed by the bytes. The Reader
// rejects every other spelling, so bytes it accepts re-encode to
// themselves.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrMalformed is returned (wrapped) for input that is truncated, has
// trailing bytes, or spells a value non-canonically.
var ErrMalformed = errors.New("binenc: malformed input")

// UvarintLen returns the encoded length of v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends p length-prefixed. Nil and empty encode alike.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// maxDepth bounds the nesting Enter allows. The deepest honest message
// (a session envelope around an op request around its op) is three
// levels.
const maxDepth = 8

// Oversized is the retention rule of every buffer kept between
// messages: one of capacity c that has just carried an n-byte message
// is dropped when c is more than four times n and over 16 KiB, so a
// buffer holds at most four times what its owner carries now, never
// the largest message it ever carried.
func Oversized(c, n int) bool { return c > max(4*n, 16<<10) }

// Recycle returns b, the encoding of one message, emptied for the
// next, or nil when b is Oversized for it: the encoders that keep a
// buffer between messages (a connection's, a journal's) must not let
// one large message pin memory for their lifetime.
func Recycle(b []byte) []byte {
	if Oversized(cap(b), len(b)) {
		return nil
	}
	return b[:0]
}

// AppendStrings appends a count and then each string length-prefixed.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// A Reader consumes an encoding front to back. The first failure
// sticks: later reads return zero values and Err reports it, so
// decoders check once at the end. A Reader never allocates more than
// the bytes it was given can back. Bytes and String copy; View and
// ViewBytes return windows onto the input, for callers that own it.
type Reader struct {
	buf   []byte
	off   int
	depth int
	err   error
}

// NewReader reads from b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Reset points r at b as NewReader would, for decoders that keep one
// Reader across messages.
func (r *Reader) Reset(b []byte) { *r = Reader{buf: b} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail records a decoder-level rejection (an unknown tag, a shape the
// grammar forbids) unless an earlier failure already stuck.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// Err returns the first failure.
func (r *Reader) Err() error { return r.err }

// Close returns the first failure, or an error if input is left over.
func (r *Reader) Close() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Enter descends one level of a recursive grammar and fails once the
// input nests deeper than any honest encoding does, so hostile nesting
// cannot exhaust the stack. Pair every true return with Leave.
func (r *Reader) Enter() bool {
	if r.err == nil && r.depth >= maxDepth {
		r.Fail("nested deeper than %d levels", maxDepth)
	}
	if r.err != nil {
		return false
	}
	r.depth++
	return true
}

// Leave ascends from a level Enter descended into.
func (r *Reader) Leave() { r.depth-- }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.Fail("truncated")
		return 0
	}
	c := r.buf[r.off]
	r.off++
	return c
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch c := r.Byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("boolean byte %d", c)
		return false
	}
}

// Uvarint reads a minimal-length uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	// A minimal encoding never ends in a zero continuation group.
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.Fail("non-minimal uvarint")
		return 0
	}
	r.off += n
	return v
}

// Uint32 reads a uvarint that must fit 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail("%d overflows 32 bits", v)
		return 0
	}
	return uint32(v)
}

// Varint reads a zigzag-encoded signed integer.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads an element count for elements that each occupy at least
// min (>= 1) encoded bytes and fails unless the unread input can hold
// that many, so a lying count cannot buy an allocation.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/min) {
		r.Fail("count %d exceeds the %d bytes left", n, r.Remaining())
		return 0
	}
	return int(n)
}

// View returns the next n bytes without copying. The slice aliases the
// Reader's input.
func (r *Reader) View(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Fail("truncated")
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// ViewBytes reads a length-prefixed byte string as a capacity-clipped
// window onto the Reader's input; an empty one reads as nil.
func (r *Reader) ViewBytes() []byte {
	p := r.View(r.Count(1))
	if len(p) == 0 {
		return nil
	}
	return p
}

// Bytes reads a length-prefixed byte string into a fresh slice; an
// empty one reads as nil.
func (r *Reader) Bytes() []byte {
	return append([]byte(nil), r.ViewBytes()...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.View(r.Count(1))) }

// Strings reads what AppendStrings wrote; an empty list reads as nil.
func (r *Reader) Strings() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}
