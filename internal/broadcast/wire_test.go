package broadcast

import (
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/wire/wiretest"
)

// TestWireGolden pins the wire form of a published Message and of the
// four frames of the resumable hub protocol.
func TestWireGolden(t *testing.T) {
	msg := Message{From: 2, Payload: &core.SyncRequest{From: 2, Round: 9}}
	wiretest.Golden(t, []wiretest.Sample{
		{Msg: &msg},
		{Variant: "report", Msg: &Message{From: 1, Payload: core.SyncReportI{User: 1, LCtr: 5, GCtr: 9}}},
		{Variant: "nil", Msg: &Message{From: 1}},
		{Msg: &hubHello{SID: 0xC0FFEE, Last: 41}},
		{Msg: &hubPub{SID: 0xC0FFEE, PubSeq: 3, Msg: msg}},
		{Msg: &hubSeq{Idx: 42, SID: 0xC0FFEE, PubSeq: 3, Msg: msg}},
		{Msg: &hubAck{LastPub: 3}},
	})
}
