package core

import (
	"testing"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire/wiretest"
)

func testDigest(seed byte) (d digest.Digest) {
	for i := range d {
		d[i] = seed + byte(i)
	}
	return d
}

// TestWireGolden pins the wire form of every message this package
// registers; the variants cover the optional parts (piggybacked backup,
// a response without a VO, empty lists). The VO is a server's: it
// writes the frames once live, straight from the database's tree, and
// once more after a reader materialized it — the same bytes both times
// — and every frame decodes to a VO made from those bytes.
func TestWireGolden(t *testing.T) {
	db := vdb.New(0)
	if err := db.Preload(&vdb.WriteOp{Puts: []vdb.KV{{Key: "a", Val: []byte("1")}, {Key: "z", Val: []byte("26")}}}); err != nil {
		t.Fatal(err)
	}
	put := &vdb.WriteOp{Puts: []vdb.KV{{Key: "k", Val: []byte("v")}}}
	ans, vo, err := db.Apply(put)
	if err != nil {
		t.Fatal(err)
	}
	backup := &EpochBackup{User: 2, Epoch: 9, Sigma: testDigest(1), Last: testDigest(2), LastCtr: 41, Sig: sig.Signature("signature-bytes")}
	// The rider envelopes, built the way the decoder builds them (a
	// single blob lives in the message's own slot).
	riderReq := func(req OpRequest, want bool, blobs ...[]byte) *RiderRequest {
		m := &RiderRequest{OpRequest: req, Want: want}
		m.Blobs = blobSlots(&m.one, len(blobs))
		copy(m.Blobs, blobs)
		return m
	}
	riderResp := func(resp any, blobs ...[]byte) *RiderResponse {
		m := &RiderResponse{Resp: resp}
		m.MakeBlobs(len(blobs))
		copy(m.Blobs, blobs)
		return m
	}
	sent, err := vo.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := merkle.ViewVO(sent)
	if err != nil {
		t.Fatal(err)
	}
	samples := goldenSamples(put, ans, vo, backup, riderReq, riderResp)
	for i, s := range goldenSamples(put, ans, decoded, backup, riderReq, riderResp) {
		samples[i].Want = s.Msg
	}
	wiretest.Golden(t, samples)
	if _, err := vo.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	wiretest.Golden(t, samples)
}

// goldenSamples returns TestWireGolden's samples around one VO.
func goldenSamples(put vdb.Op, ans []byte, vo *merkle.VO, backup *EpochBackup,
	riderReq func(OpRequest, bool, ...[]byte) *RiderRequest, riderResp func(any, ...[]byte) *RiderResponse) []wiretest.Sample {
	return []wiretest.Sample{
		{Msg: &OpRequest{User: 3, Op: put}},
		{Variant: "backup", Msg: &OpRequest{User: 3, Op: &vdb.ReadOp{Keys: []string{"k"}}, Backup: backup}},
		{Msg: &AckRequest{User: 4, Sig: sig.Signature("ack-signature")}},
		{Msg: &OpResponseI{Answer: ans, VO: vo, Ctr: 7, Signer: 2, Sig: sig.Signature("state-signature")}},
		{Msg: &OpResponseII{Answer: ans, VO: vo, Ctr: 300, Last: 7, Epoch: 2}},
		{Variant: "trusted", Msg: &OpResponseII{Answer: ans}},
		{Msg: &SyncRequest{From: 1, Round: 2}},
		{Msg: SyncReportI{User: 1, LCtr: 5, GCtr: 9}},
		{Msg: SyncReportII{User: 1, Sigma: testDigest(7), Last: testDigest(8)}},
		{Msg: Registers{Sigma: testDigest(11), Last: testDigest(12), LastCtr: 4, GCtr: 1 << 40, Ops: 3}},
		{Msg: backup},
		{Msg: &GetBackupsRequest{User: 1, Epoch: 8}},
		{Msg: &BackupsResponse{Epoch: 8, Backups: []*EpochBackup{backup, {User: 3}}}},
		{Variant: "empty", Msg: &BackupsResponse{Epoch: 8}},
		{Msg: &PushContentRequest{Path: "src/main.go", Rev: 3, Content: []byte("package main\n")}},
		{Msg: &FetchContentRequest{Path: "src/main.go", Rev: 3, Hash: testDigest(13)}},
		{Msg: &ContentResponse{Content: []byte("package main\n")}},
		{Variant: "empty", Msg: &ContentResponse{}},
		{Msg: &OKResponse{}},
		{Msg: vo},
		{Msg: riderReq(OpRequest{User: 3, Op: put}, false, []byte("package main\n"))},
		{Variant: "want", Msg: riderReq(OpRequest{User: 3, Op: &vdb.ReadOp{Keys: []string{"k"}}}, true)},
		{Variant: "backup", Msg: riderReq(OpRequest{User: 2, Op: put, Backup: backup}, true, []byte("one"), nil, []byte("three"))},
		{Msg: riderResp(&OpResponseII{Answer: ans, VO: vo, Ctr: 300, Last: 7}, []byte("package main\n"))},
		{Variant: "bare", Msg: riderResp(&OpResponseI{Answer: ans, VO: vo, Ctr: 7, Signer: 2, Sig: sig.Signature("state-signature")})},
		{Variant: "partial", Msg: riderResp(&OpResponseII{Answer: ans}, []byte("one"), nil, []byte("three"))},
	}
}

// TestRetiredFramesRefused: what a server or user on a sharded database
// framed — a cross-shard request and response, a response or sync report
// whose shard fields are set — is refused; tag 20 is never reused.
func TestRetiredFramesRefused(t *testing.T) { wiretest.Retired(t) }
