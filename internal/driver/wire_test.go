package driver

import (
	"testing"

	"trustedcvs/internal/audit"
	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/wire/wiretest"
)

// TestWireGolden pins the wire form of the two report messages clients
// broadcast to each other.
func TestWireGolden(t *testing.T) {
	sigma := digest.OfBytes(digest.DomainState, []byte("sigma"))
	last := digest.OfBytes(digest.DomainState, []byte("last"))
	two := core.SyncReportII{User: 2, Sigma: sigma, Last: last}
	wiretest.Golden(t, []wiretest.Sample{
		{Msg: &reportMsg{Initiator: 1, Round: 4, ReportII: &two}},
		{Variant: "protocol1", Msg: &reportMsg{Initiator: 1, Round: 4, ReportI: &core.SyncReportI{User: 2, LCtr: 8, GCtr: 16}}},
		{Msg: &epochReportMsg{Report: audit.Report{Epoch: 3, Report: two}}},
		{Variant: "seal", Msg: &epochReportMsg{Report: audit.Report{Seal: true, Report: two}}},
		{Variant: "retract", Msg: &epochReportMsg{Report: audit.Report{Retract: true, Report: core.SyncReportII{User: 2}}}},
	})
}
