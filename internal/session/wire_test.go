package session

import (
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
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
