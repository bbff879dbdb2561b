package vdb

import (
	"encoding/binary"
	"fmt"

	"trustedcvs/internal/binenc"
)

// A WireAnswer is an answer value with a canonical binary form: a
// one-byte type tag followed by a fixed-layout body built from the
// internal/binenc primitives. The closed set is the five answer types
// of this package and the six of internal/cvs.
//
// The form is canonical by construction — one value, one byte string,
// in every binary — which is what lets the verifier compare a claimed
// answer with its own replay by byte equality.
type WireAnswer interface {
	// AppendAnswer appends the type's tag and canonical body to b.
	AppendAnswer(b []byte) []byte
}

// Answer type tags of this package. internal/cvs owns 16–21; 0 is
// never a valid tag, and 6, the retired cross-shard answer's, is never
// reused.
const (
	tagRead    = 1
	tagWrite   = 2
	tagRange   = 3
	tagNop     = 4
	tagCAS     = 5
	tagRetired = 6
)

// answerDecoders maps a tag to the decoder of its body. Filled by
// RegisterAnswer at init time, read-only afterwards.
var answerDecoders [256]func(*binenc.Reader) any

// RegisterAnswer installs the body decoder of one answer type. decode
// returns the answer as a value (not a pointer); failures go through
// the Reader. Called from package init functions only; a duplicate or
// reserved tag is a programming error.
func RegisterAnswer(tag byte, decode func(*binenc.Reader) any) {
	if tag == 0 || tag == tagRetired || answerDecoders[tag] != nil {
		panic(fmt.Sprintf("vdb: answer tag %d is reserved or already registered", tag))
	}
	answerDecoders[tag] = decode
}

func init() {
	RegisterAnswer(tagRead, func(r *binenc.Reader) any { return ReadAnswer{Results: readResults(r)} })
	RegisterAnswer(tagWrite, func(r *binenc.Reader) any {
		return WriteAnswer{Put: int(r.Varint()), Deleted: int(r.Varint())}
	})
	RegisterAnswer(tagRange, func(r *binenc.Reader) any { return RangeAnswer{Results: readResults(r)} })
	RegisterAnswer(tagNop, func(*binenc.Reader) any { return NopAnswer{} })
	RegisterAnswer(tagCAS, func(r *binenc.Reader) any {
		return CASAnswer{Swapped: r.Bool(), Actual: r.Bytes()}
	})
}

// EncodeAnswer canonically encodes an answer for transmission and
// comparison. Answer equality is byte equality of this encoding.
func EncodeAnswer(ans any) ([]byte, error) { return appendAnswer(nil, ans) }

// appendAnswer appends the canonical encoding of ans to b, which, when
// nil, starts with room for a typical answer.
func appendAnswer(b []byte, ans any) ([]byte, error) {
	a, ok := ans.(WireAnswer)
	if !ok {
		return nil, fmt.Errorf("vdb: encode answer: %T is not an answer type", ans)
	}
	if b == nil {
		b = make([]byte, 0, 64)
	}
	return a.AppendAnswer(b), nil
}

// DecodeAnswer decodes an answer produced by EncodeAnswer. The input
// is untrusted: anything but the canonical encoding of one answer —
// unknown tags, non-minimal integers, counts the input cannot back,
// trailing bytes — is an error, so accepted bytes re-encode to
// themselves. The result shares no memory with b.
func DecodeAnswer(b []byte) (any, error) {
	r := binenc.NewReader(b)
	var ans any
	if tag := r.Byte(); answerDecoders[tag] != nil {
		ans = answerDecoders[tag](r)
	} else {
		r.Fail("unknown answer tag %d", tag)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("vdb: decode answer: %w", err)
	}
	return ans, nil
}

func appendResults(b []byte, rs []ReadResult) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, res := range rs {
		b = binenc.AppendString(b, res.Key)
		b = binenc.AppendBool(b, res.Found)
		b = binenc.AppendBytes(b, res.Val)
	}
	return b
}

func readResults(r *binenc.Reader) []ReadResult {
	n := r.Count(3)
	if n == 0 {
		return nil
	}
	out := make([]ReadResult, n)
	for i := range out {
		out[i] = ReadResult{Key: r.String(), Found: r.Bool(), Val: r.Bytes()}
	}
	return out
}

// AppendAnswer implements WireAnswer.
func (a ReadAnswer) AppendAnswer(b []byte) []byte {
	return appendResults(append(b, tagRead), a.Results)
}

// AppendAnswer implements WireAnswer.
func (a WriteAnswer) AppendAnswer(b []byte) []byte {
	b = append(b, tagWrite)
	b = binary.AppendVarint(b, int64(a.Put))
	return binary.AppendVarint(b, int64(a.Deleted))
}

// AppendAnswer implements WireAnswer.
func (a RangeAnswer) AppendAnswer(b []byte) []byte {
	return appendResults(append(b, tagRange), a.Results)
}

// AppendAnswer implements WireAnswer.
func (a NopAnswer) AppendAnswer(b []byte) []byte { return append(b, tagNop) }

// AppendAnswer implements WireAnswer.
func (a CASAnswer) AppendAnswer(b []byte) []byte {
	b = append(b, tagCAS)
	b = binenc.AppendBool(b, a.Swapped)
	return binenc.AppendBytes(b, a.Actual)
}
