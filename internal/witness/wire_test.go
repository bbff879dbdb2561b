package witness

import (
	"testing"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/wire/wiretest"
)

// TestWireGolden pins the wire form of the eight witness messages. The
// gossip samples carry their pinned keys in a map built out of order:
// the encoding must come out in sorted key order all the same.
func TestWireGolden(t *testing.T) {
	root := digest.OfBytes(digest.DomainState, []byte("root"))
	prev := digest.OfBytes(digest.DomainState, []byte("prev"))
	a := &forensics.Commitment{Server: "primary", Seq: 7, Ctr: 112, Root: root, Prev: prev, Sig: []byte("signature-a")}
	b := &forensics.Commitment{Server: "primary", Seq: 7, Ctr: 112, Root: prev, Prev: prev, Sig: []byte("signature-b")}
	ev := []*forensics.Evidence{{Server: "primary", Pub: []byte("public-key"), A: *a, B: *b, Witnesses: []string{"w1", "w2"}}}
	pubs := map[string][]byte{"zeta": []byte("key-z"), "primary": []byte("public-key"), "alpha": []byte("key-a")}
	wiretest.Golden(t, []wiretest.Sample{
		{Msg: &SubmitRequest{Commit: a, Pub: []byte("public-key")}},
		{Variant: "empty", Msg: &SubmitRequest{}},
		{Msg: &SubmitReply{OK: true}},
		{Msg: &SnapshotPut{Server: "primary", Ctr: 112, Root: root, Data: []byte("checkpoint envelope")}},
		{Msg: &SnapshotReply{OK: true}},
		{Msg: &LatestRequest{Server: "primary"}},
		{Msg: &LatestReply{Commit: a, Pub: []byte("public-key"), Evidence: ev}},
		{Variant: "nothing-seen", Msg: &LatestReply{}},
		{Msg: &GossipRequest{From: "w1", Pubs: pubs, Commits: []*forensics.Commitment{a, b}, Evidence: ev}},
		{Variant: "empty", Msg: &GossipRequest{From: "w1"}},
		{Msg: &GossipReply{Pubs: pubs, Commits: []*forensics.Commitment{a}}},
	})
}
