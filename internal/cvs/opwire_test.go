package cvs

import (
	"testing"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/wire/wiretest"
)

// TestOpWireGolden pins the wire form of every CVS operation.
func TestOpWireGolden(t *testing.T) {
	hash := digest.OfBytes(digest.DomainBlob, []byte("package main\n"))
	wiretest.Golden(t, []wiretest.Sample{
		{Msg: &CommitOp{
			Files:  []CommitFile{{Path: "src/main.go", Hash: hash, BaseRev: 2}, {Path: "README", Hash: hash}},
			Author: "alice", Log: "fix the build", TimeUnix: 1136214245,
		}},
		{Msg: &CheckoutOp{Paths: []string{"src/main.go", "README"}}},
		{Variant: "tag", Msg: &CheckoutOp{Paths: []string{"README"}, Tag: "v1"}},
		{Variant: "rev", Msg: &CheckoutOp{Paths: []string{"README"}, Rev: 3}},
		{Msg: &LogOp{Path: "src/main.go"}},
		{Msg: &ListOp{Prefix: "src/"}},
		{Variant: "all", Msg: &ListOp{}},
		{Msg: &TagOp{Tag: "v1", Paths: []string{"src/main.go"}}},
		{Msg: &RemoveOp{Paths: []string{"old.txt"}, Author: "bob", Log: "unused", TimeUnix: -1}},
	})
}
