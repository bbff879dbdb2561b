package vdb

import (
	"testing"

	"trustedcvs/internal/wire/wiretest"
)

// TestOpWireGolden pins the wire form of every operation. CASOp gets
// three: Expect == nil ("require absence") and Expect == []byte{}
// ("require the empty value") are different requests and must stay
// different across the wire.
func TestOpWireGolden(t *testing.T) {
	wiretest.Golden(t, []wiretest.Sample{
		{Msg: &ReadOp{Keys: []string{"alpha", "beta"}}},
		{Msg: &WriteOp{Puts: []KV{{Key: "k", Val: []byte("v")}, {Key: "empty"}}, Deletes: []string{"gone"}}},
		{Msg: &RangeOp{Lo: "a", Hi: "m", Limit: 100}},
		{Msg: &NopOp{}},
		{Msg: &CASOp{Key: "lock", Expect: []byte("old"), New: []byte("new")}},
		{Variant: "absent", Msg: &CASOp{Key: "lock", New: []byte("new")}},
		{Variant: "empty", Msg: &CASOp{Key: "lock", Expect: []byte{}, New: []byte("new")}},
	})
}

// TestRetiredOpFramesRefused: a cross-shard transaction as binaries with
// a sharded database framed it is refused; tag 53 is never reused.
func TestRetiredOpFramesRefused(t *testing.T) { wiretest.Retired(t) }
