package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/wire/wiretest"
)

// TestWireGolden pins the wire form of the sync report clients
// broadcast to each other.
func TestWireGolden(t *testing.T) {
	sigma := digest.OfBytes(digest.DomainState, []byte("sigma"))
	last := digest.OfBytes(digest.DomainState, []byte("last"))
	two := core.SyncReportII{User: 2, Sigma: sigma, Last: last}
	wiretest.Golden(t, []wiretest.Sample{
		{Msg: &Report{Initiator: 1, Round: 4, ReportII: &two}},
		{Variant: "protocol1", Msg: &Report{Initiator: 1, Round: 4, ReportI: &core.SyncReportI{User: 2, LCtr: 8, GCtr: 16}}},
	})
}

// TestReportNestsWithoutBoxing: a report's nested sync report is
// written and read as its tag and body without an interface value, so
// encoding a report allocates nothing and decoding one allocates the
// report alone; a nested message of any other type in either slot is
// refused.
func TestReportNestsWithoutBoxing(t *testing.T) {
	two := core.SyncReportII{User: 2, Sigma: digest.OfBytes(digest.DomainState, []byte("sigma"))}
	reports := []*Report{
		{Initiator: 1, Round: 4, ReportII: &two},
		{Initiator: 1, Round: 4, ReportI: &core.SyncReportI{User: 2, LCtr: 8, GCtr: 16}},
	}
	const runs = 100
	var frames bytes.Buffer
	enc := wire.NewEncoder(&frames)
	for i := 0; i < 2*(runs+1); i++ {
		if err := enc.Encode(reports[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	discard := wire.NewEncoder(io.Discard)
	if got := testing.AllocsPerRun(runs, func() {
		if err := discard.Encode(reports[0]); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("encoding a report allocated %.1f times", got)
	}
	dec := wire.NewDecoder(&frames)
	if got := testing.AllocsPerRun(runs, func() {
		for _, want := range reports {
			msg, err := dec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(msg, want) {
				t.Fatalf("decoded %#v, want %#v", msg, want)
			}
		}
	}); got > 2 {
		t.Errorf("decoding two reports allocated %.1f times, want one each", got)
	}

	frame := func(nested ...any) []byte {
		body := binary.AppendUvarint(binary.AppendUvarint([]byte{96}, 1), 4)
		for _, m := range nested {
			var err error
			if body, err = wire.Append(body, m); err != nil {
				t.Fatal(err)
			}
		}
		return append(binary.BigEndian.AppendUint32(nil, 1<<30|uint32(len(body))), body...)
	}
	for name, b := range map[string][]byte{
		"protocol II report in the protocol I slot": frame(two, nil),
		"protocol I report in the protocol II slot": frame(nil, core.SyncReportI{User: 2}),
		"a string in the protocol II slot":          frame(nil, "report"),
	} {
		if msg, err := wire.NewDecoder(bytes.NewReader(b)).Decode(); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: decoded %#v, %v; want wire.ErrMalformed", name, msg, err)
		}
	}
	if _, err := wire.NewDecoder(bytes.NewReader(frame(nil, two))).Decode(); err != nil {
		t.Fatalf("the well-formed frame the refusals start from: %v", err)
	}
}
