package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/vdb"
)

// FuzzSnapshotLoad drives both snapshot loaders with arbitrary bytes.
// The property is totality: a checkpoint file is the one input the
// server reads with no adversary model in front of it — a corrupt or
// hostile file must produce a clean error, never a panic and never a
// silently wrong restore (the checksum footer must fail before gob
// sees a flipped payload byte).
func FuzzSnapshotLoad(f *testing.F) {
	db := vdb.New(0)
	srv := NewP2(db)
	store := cvs.NewStore()
	user := proto2.NewUser(0, db.Root(), 1000)
	op := &cvs.CommitOp{
		Files:  []cvs.CommitFile{{Path: "f", Hash: rcs.HashContent([]byte("v1\n"))}},
		Author: "u0", TimeUnix: 1,
	}
	raw, err := srv.HandleOp(user.Request(op))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := user.HandleResponse(op, raw.(*core.OpResponseII)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveP2(&buf, srv, store); err != nil {
		f.Fatal(err)
	}
	honest := buf.Bytes()

	f.Add(append([]byte(nil), honest...))
	f.Add(append([]byte(nil), honest[:len(honest)/2]...))
	f.Add(append([]byte(nil), honest[:len(honest)-1]...))
	flipped := append([]byte(nil), honest...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	// A header promising a giant payload: must be rejected or fail on
	// truncation without a giant allocation.
	huge := []byte(snapMagic)
	huge = binary.BigEndian.AppendUint64(huge, maxSnapshotBytes+1)
	f.Add(huge)
	f.Add([]byte(fmt.Sprintf("%s%s", snapMagic, "\x00\x00\x00\x00\x00\x00\x00\x04gobs")))

	f.Fuzz(func(t *testing.T, b []byte) {
		if _, _, err := LoadP2(bytes.NewReader(b)); err == nil {
			// Only a verifiable frame may load; spot-check that what
			// loaded really carries the footer-protected payload.
			if payload, perr := durable.ReadEnvelope(bytes.NewReader(b), snapMagic, digest.DomainSnapshot, maxSnapshotBytes); perr != nil {
				t.Fatalf("LoadP2 accepted input that fails frame verification: %v", perr)
			} else if len(payload) == 0 {
				t.Fatal("LoadP2 accepted an empty payload")
			}
		}
		_, _, _ = LoadP3(bytes.NewReader(b))
		_, _ = DecodeP2Snapshot(bytes.NewReader(b))
	})
}
