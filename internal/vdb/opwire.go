package vdb

import (
	"encoding/binary"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/wire"
)

// Wire tags of this package's operations (wire.Register). Ops travel
// inside an interface-typed field (OpRequest.Op), so each nests as
// tag + body; internal/cvs registers its own ops the same way. Answers
// do not go through this table at all (see answer.go). 53 was the
// cross-shard transaction's and is never reused.
const (
	wireReadOp  = 48
	wireWriteOp = 49
	wireRangeOp = 50
	wireNopOp   = 51
	wireCASOp   = 52
)

func init() {
	wire.Register(wireReadOp, func(b []byte, o *ReadOp) ([]byte, error) {
		return binenc.AppendStrings(b, o.Keys), nil
	}, func(r *binenc.Reader) *ReadOp {
		return &ReadOp{Keys: r.Strings()}
	})
	wire.Register(wireWriteOp, func(b []byte, o *WriteOp) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(len(o.Puts)))
		for _, kv := range o.Puts {
			b = binenc.AppendString(b, kv.Key)
			b = binenc.AppendBytes(b, kv.Val)
		}
		return binenc.AppendStrings(b, o.Deletes), nil
	}, func(r *binenc.Reader) *WriteOp {
		o := new(WriteOp)
		if n := r.Count(2); n > 0 {
			o.Puts = make([]KV, n)
			for i := range o.Puts {
				o.Puts[i] = KV{Key: r.String(), Val: r.ViewBytes()}
			}
		}
		o.Deletes = r.Strings()
		return o
	})
	wire.Register(wireRangeOp, func(b []byte, o *RangeOp) ([]byte, error) {
		b = binenc.AppendString(b, o.Lo)
		b = binenc.AppendString(b, o.Hi)
		return binary.AppendVarint(b, int64(o.Limit)), nil
	}, func(r *binenc.Reader) *RangeOp {
		return &RangeOp{Lo: r.String(), Hi: r.String(), Limit: int(r.Varint())}
	})
	wire.Register(wireNopOp, func(b []byte, _ *NopOp) ([]byte, error) { return b, nil },
		func(*binenc.Reader) *NopOp { return &NopOp{} })
	// Expect == nil means "require absence" and is not the same request
	// as an empty expected value, so its presence is spelled out.
	wire.Register(wireCASOp, func(b []byte, o *CASOp) ([]byte, error) {
		b = binenc.AppendString(b, o.Key)
		b = binenc.AppendBool(b, o.Expect != nil)
		if o.Expect != nil {
			b = binenc.AppendBytes(b, o.Expect)
		}
		return binenc.AppendBytes(b, o.New), nil
	}, func(r *binenc.Reader) *CASOp {
		o := &CASOp{Key: r.String()}
		if r.Bool() {
			o.Expect = r.View(r.Count(1))
		}
		o.New = r.ViewBytes()
		return o
	})
}

// ReadWireOp reads an operation nested as tag + body (or the nil byte).
// Any other registered message in an operation's place fails the
// Reader.
func ReadWireOp(r *binenc.Reader) Op {
	switch v := wire.Read(r).(type) {
	case nil:
		return nil
	case Op:
		return v
	default:
		r.Fail("%T where an operation belongs", v)
		return nil
	}
}
