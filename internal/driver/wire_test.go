package driver

import (
	"testing"

	"trustedcvs/internal/audit"
	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/wire/wiretest"
)

// TestWireGolden pins the wire form of the epoch report message clients
// broadcast to each other (the sync report is session.Report's).
func TestWireGolden(t *testing.T) {
	sigma := digest.OfBytes(digest.DomainState, []byte("sigma"))
	last := digest.OfBytes(digest.DomainState, []byte("last"))
	two := core.SyncReportII{User: 2, Sigma: sigma, Last: last}
	wiretest.Golden(t, []wiretest.Sample{
		{Msg: &epochReportMsg{Report: audit.Report{Epoch: 3, Report: two}}},
		{Variant: "seal", Msg: &epochReportMsg{Report: audit.Report{Seal: true, Report: two}}},
		{Variant: "retract", Msg: &epochReportMsg{Report: audit.Report{Retract: true, Report: core.SyncReportII{User: 2}}}},
	})
}
