package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/wire/wiretest"
)

const goldenDir = "testdata/golden"

// goldenP2Single is a single-tree Protocol II deployment after three
// commits and a checkout, with a session table whose cache holds what a
// handler really returns: plain OpResponseIIs, a RiderResponse carrying
// a blob, a cached application error and a bare OK.
func goldenP2Single(t testing.TB) (Server, *P2Snapshot) {
	t.Helper()
	db := vdb.New(0)
	srv := NewP2(db)
	store := cvs.NewStore()
	user := proto2.NewUser(0, db.Root(), 1000)
	var cached []transport.OpOutcome
	do := func(op vdb.Op) *core.OpResponseII {
		raw, err := srv.HandleOp(user.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		resp := raw.(*core.OpResponseII)
		if _, err := user.HandleResponse(op, resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 1; i <= 3; i++ {
		content := []byte(fmt.Sprintf("v%d\n", i))
		resp := do(&cvs.CommitOp{
			Files:  []cvs.CommitFile{{Path: "f", Hash: rcs.HashContent(content)}},
			Author: "u0", TimeUnix: int64(i),
		})
		if err := store.Push("f", uint64(i), content); err != nil {
			t.Fatal(err)
		}
		cached = append(cached, transport.OpOutcome{Seq: uint64(i), Resp: resp})
	}
	checkout := do(&cvs.CheckoutOp{Paths: []string{"f"}})
	cached = append(cached,
		transport.OpOutcome{Seq: 4, Resp: &core.RiderResponse{Resp: checkout, Blobs: [][]byte{[]byte("v3\n")}}},
		transport.OpOutcome{Seq: 5, IsErr: true, ErrMsg: "cvs: no content for g@1"})
	snap, err := CheckpointP2(srv, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Sessions = &transport.SessionsSnapshot{Sessions: []transport.SessionState{
		{SID: 0x1234, High: 5, Ops: cached},
		{SID: 0x99999, High: 130, Floor: 2, Ops: []transport.OpOutcome{{Seq: 130, Resp: &core.OKResponse{}}}},
	}}
	return srv, snap
}

// TestSnapshotGoldenBytes pins the snapshot's on-disk format, envelope
// and payload: today's encoder must produce the checked-in bytes
// (-update rewrites them), and the checked-in bytes must load to the
// live server's root, counters and session cache and re-encode to
// themselves — nothing in the file depends on what else the process
// encoded first.
func TestSnapshotGoldenBytes(t *testing.T) {
	encodeP2 := func(snap *P2Snapshot) []byte {
		var buf bytes.Buffer
		if err := EncodeP2Snapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	single, singleSnap := goldenP2Single(t)
	for name, tc := range map[string]struct {
		live Server
		snap *P2Snapshot
	}{
		"p2-snapshot-single.snap": {single, singleSnap},
	} {
		path := filepath.Join(goldenDir, name)
		wiretest.Bytes(t, path, encodeP2(tc.snap))
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeP2Snapshot(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := encodeP2(back); !bytes.Equal(again, golden) {
			t.Errorf("%s: decode + encode is not the identity", name)
		}
		restored, _, _, err := RestoreP2(back)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gotCtr, gotRoot := restored.DB().Head()
		if wantCtr, wantRoot := tc.live.DB().Head(); gotCtr != wantCtr || gotRoot != wantRoot {
			t.Errorf("%s: restored to (%d, %s), the live server is at (%d, %s)", name, gotCtr, gotRoot.Short(), wantCtr, wantRoot.Short())
		}
		if got, want := len(back.Sessions.Sessions), len(tc.snap.Sessions.Sessions); got != want {
			t.Errorf("%s: %d sessions decoded, %d were captured", name, got, want)
		}
	}
	// The cached replies come back as the messages they were.
	back, err := DecodeP2Snapshot(bytes.NewReader(encodeP2(singleSnap)))
	if err != nil {
		t.Fatal(err)
	}
	tbl := transport.NewSessionTable()
	tbl.RestoreSessions(back.Sessions)
	for _, want := range singleSnap.Sessions.Sessions[0].Ops {
		got, err := tbl.Dispatch(&wire.SessionRequest{SID: 0x1234, Seq: want.Seq}, nil)
		if want.IsErr {
			if err == nil || err.Error() != want.ErrMsg {
				t.Errorf("seq %d: replayed error %v, want %q", want.Seq, err, want.ErrMsg)
			}
			continue
		}
		a, _ := wire.Append(nil, got)
		b, _ := wire.Append(nil, want.Resp)
		if err != nil || !bytes.Equal(a, b) {
			t.Errorf("seq %d: replayed %T (err %v), want the cached %T", want.Seq, got, err, want.Resp)
		}
	}
}

// TestOldFormatSnapshotRefused: a snapshot written by an older binary —
// gob-era, format 0x85/0x86 whose store section still carried a
// revision index, or a 4-shard Merkle forest — or for Protocol III,
// whose snapshots no binary restores any more, passes its envelope
// check and is then refused with ErrSnapshotFormat: never converted,
// never mistaken for a first boot, and left on disk as it was.
func TestOldFormatSnapshotRefused(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	oldP2 := read("gob-p2-snapshot-3commits.snap")
	for name, b := range map[string][]byte{
		"gob-era P2":     oldP2,
		"gob-era P3":     read("gob-p3-snapshot-empty.snap"),
		"format 0x85 P2": read("fmt85-p2-snapshot-single.snap"),
		"format 0x86 P3": read("fmt86-p3-snapshot-backups.snap"),
		"format 0x8D P3": read("p3-snapshot-backups.snap"),
		"forest P2":      read("p2-snapshot-forest4.snap"),
	} {
		if _, err := durable.ReadEnvelope(bytes.NewReader(b), snapMagic, digest.DomainSnapshot, maxSnapshotBytes); err != nil {
			t.Fatalf("test bug: the %s fixture's envelope does not verify: %v", name, err)
		}
		if _, err := DecodeP2Snapshot(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("DecodeP2Snapshot(%s) = %v, want ErrSnapshotFormat", name, err)
		}
	}

	for _, old := range [][]byte{oldP2, read("fmt85-p2-snapshot-single.snap"), read("p2-snapshot-forest4.snap")} {
		path := filepath.Join(t.TempDir(), "state.snap")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDurable(path, 0, 0)
		if !errors.Is(err, ErrSnapshotFormat) || errors.Is(err, errNoSnapshot) {
			t.Fatalf("OpenDurable(older-format file) = %v, want ErrSnapshotFormat and not a first boot", err)
		}
		if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, old) {
			t.Fatalf("the refused file changed on disk (err %v)", rerr)
		}
		if _, err := os.Stat(path + ".journal"); !os.IsNotExist(err) {
			t.Fatalf("a refused record opened its journal (stat: %v)", err)
		}
	}
}
