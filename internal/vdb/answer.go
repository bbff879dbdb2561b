package vdb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"trustedcvs/internal/binenc"
)

// A WireAnswer is an answer value with a canonical binary form: a
// one-byte type tag followed by a fixed-layout body built from the
// internal/binenc primitives. The closed set is the six answer types
// of this package and the six of internal/cvs; CrossAnswer, whose legs
// are themselves answers, is encoded by this package directly.
//
// The form is canonical by construction — one value, one byte string,
// in every binary — which is what lets the verifier compare a claimed
// answer with its own replay by byte equality.
type WireAnswer interface {
	// AppendAnswer appends the type's tag and canonical body to b.
	AppendAnswer(b []byte) []byte
}

// Answer type tags of this package. internal/cvs owns 16–21; 0 is
// never a valid tag.
const (
	tagRead  = 1
	tagWrite = 2
	tagRange = 3
	tagNop   = 4
	tagCAS   = 5
	tagCross = 6
)

// answerDecoders maps a tag to the decoder of its body. Filled by
// RegisterAnswer at init time, read-only afterwards.
var answerDecoders [256]func(*binenc.Reader) any

// RegisterAnswer installs the body decoder of one answer type. decode
// returns the answer as a value (not a pointer); failures go through
// the Reader. Called from package init functions only; a duplicate or
// reserved tag is a programming error.
func RegisterAnswer(tag byte, decode func(*binenc.Reader) any) {
	if tag == 0 || tag == tagCross || answerDecoders[tag] != nil {
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
func EncodeAnswer(ans any) ([]byte, error) {
	b, err := appendAnswer(make([]byte, 0, 64), ans, false)
	if err != nil {
		return nil, fmt.Errorf("vdb: encode answer: %w", err)
	}
	return b, nil
}

func appendAnswer(b []byte, ans any, nested bool) ([]byte, error) {
	switch a := ans.(type) {
	case CrossAnswer:
		if nested {
			return nil, errors.New("nested cross answer")
		}
		b = append(b, tagCross)
		b = binary.AppendUvarint(b, uint64(len(a.Answers)))
		for _, leg := range a.Answers {
			var err error
			if b, err = appendAnswer(b, leg, true); err != nil {
				return nil, err
			}
		}
		return b, nil
	case WireAnswer:
		return a.AppendAnswer(b), nil
	}
	return nil, fmt.Errorf("%T is not an answer type", ans)
}

// DecodeAnswer decodes an answer produced by EncodeAnswer. The input
// is untrusted: anything but the canonical encoding of one answer —
// unknown tags, non-minimal integers, counts the input cannot back,
// trailing bytes — is an error, so accepted bytes re-encode to
// themselves. The result shares no memory with b.
func DecodeAnswer(b []byte) (any, error) {
	r := binenc.NewReader(b)
	ans := decodeAnswer(r, false)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("vdb: decode answer: %w", err)
	}
	return ans, nil
}

func decodeAnswer(r *binenc.Reader, nested bool) any {
	tag := r.Byte()
	if tag == tagCross {
		// One level only, mirroring CrossOp.Apply; it also bounds the
		// recursion a hostile input can drive.
		if nested {
			r.Fail("nested cross answer")
			return nil
		}
		var ans CrossAnswer
		if n := r.Count(1); n > 0 {
			ans.Answers = make([]any, n)
			for i := range ans.Answers {
				ans.Answers[i] = decodeAnswer(r, true)
			}
		}
		return ans
	}
	decode := answerDecoders[tag]
	if decode == nil {
		r.Fail("unknown answer tag %d", tag)
		return nil
	}
	return decode(r)
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
