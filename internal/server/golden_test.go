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
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/sig"
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
	snap, err := CheckpointP2(srv, store)
	if err != nil {
		t.Fatal(err)
	}
	snap.Sessions = &transport.SessionsSnapshot{Sessions: []transport.SessionState{
		{SID: 0x1234, High: 5, Ops: cached},
		{SID: 0x99999, High: 130, Floor: 2, Ops: []transport.OpOutcome{{Seq: 130, Resp: &core.OKResponse{}}}},
	}}
	return srv, snap
}

// goldenP3 is a Protocol III deployment two epochs in, holding both
// users' signed epoch-0 backups.
func goldenP3(t testing.TB) (Server, *cvs.Store) {
	t.Helper()
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := vdb.New(0)
	srv := NewP3(db)
	store := cvs.NewStore()
	rev := uint64(0)
	users := []*proto3.User{proto3.NewUser(signers[0], ring, db.Root()), proto3.NewUser(signers[1], ring, db.Root())}
	for epoch := 0; epoch < 2; epoch++ {
		// Two operations each: the first of an epoch tells the user the
		// epoch turned, the second uploads the backup.
		for i := 0; i < 4; i++ {
			u, user := i/2, users[i/2]
			rev++
			content := []byte(fmt.Sprintf("e%d-u%d-%d\n", epoch, u, i%2))
			op := &cvs.CommitOp{Files: []cvs.CommitFile{{Path: "f", Hash: rcs.HashContent(content)}}, Author: "u", TimeUnix: 1}
			raw, err := srv.HandleOp(user.Request(op))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := user.HandleResponse(op, raw.(*core.OpResponseII)); err != nil {
				t.Fatal(err)
			}
			if err := store.Push("f", rev, content); err != nil {
				t.Fatal(err)
			}
		}
		srv.AdvanceEpoch()
	}
	if bk, err := srv.HandleGetBackups(&core.GetBackupsRequest{Epoch: 0}); err != nil || len(bk.Backups) != 2 {
		t.Fatalf("test bug: epoch-0 backups not stored: %+v %v", bk, err)
	}
	return srv, store
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
		restored, _, err := RestoreP2(back)
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

	p3srv, p3store := goldenP3(t)
	var buf bytes.Buffer
	if err := SaveP3(&buf, p3srv, p3store); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(goldenDir, "p3-snapshot-backups.snap")
	wiretest.Bytes(t, path, buf.Bytes())
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv3, store3, err := LoadP3(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := SaveP3(&buf, srv3, store3); err != nil || !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("p3: load + save is not the identity (err %v)", err)
	}
	if srv3.DB().Root() != p3srv.DB().Root() || srv3.Epoch() != 2 {
		t.Errorf("p3: restored to root %s epoch %d", srv3.DB().Root().Short(), srv3.Epoch())
	}
	if bk, err := srv3.HandleGetBackups(&core.GetBackupsRequest{Epoch: 0}); err != nil || len(bk.Backups) != 2 {
		t.Errorf("p3: restored epoch-0 backups: %+v %v", bk, err)
	}
}

// TestOldFormatSnapshotRefused: a snapshot written by an older binary —
// gob-era, format 0x85/0x86 whose store section still carried a
// revision index, or a 4-shard Merkle forest — or for the other protocol
// passes its envelope check and is then refused with ErrSnapshotFormat:
// never converted, never mistaken for a first boot, and left on disk as
// it was.
func TestOldFormatSnapshotRefused(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	oldP2, newP2 := read("gob-p2-snapshot-3commits.snap"), read("p2-snapshot-single.snap")
	for name, b := range map[string][]byte{
		"gob-era P2":     oldP2,
		"gob-era P3":     read("gob-p3-snapshot-empty.snap"),
		"format 0x85 P2": read("fmt85-p2-snapshot-single.snap"),
		"format 0x86 P3": read("fmt86-p3-snapshot-backups.snap"),
		"forest P2":      read("p2-snapshot-forest4.snap"),
	} {
		if _, err := durable.ReadEnvelope(bytes.NewReader(b), snapMagic, digest.DomainSnapshot, maxSnapshotBytes); err != nil {
			t.Fatalf("test bug: the %s fixture's envelope does not verify: %v", name, err)
		}
		if _, _, err := LoadP2(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("LoadP2(%s) = %v, want ErrSnapshotFormat", name, err)
		}
		if _, _, err := LoadP3(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("LoadP3(%s) = %v, want ErrSnapshotFormat", name, err)
		}
	}
	if _, _, err := LoadP3(bytes.NewReader(newP2)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("LoadP3(a P2 snapshot) = %v, want ErrSnapshotFormat", err)
	}

	for _, old := range [][]byte{oldP2, read("fmt85-p2-snapshot-single.snap"), read("p2-snapshot-forest4.snap")} {
		path := filepath.Join(t.TempDir(), "state.snap")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadP2Auto(path)
		if !errors.Is(err, ErrSnapshotFormat) || errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("LoadP2Auto(older-format file) = %v, want ErrSnapshotFormat and not ErrNoSnapshot", err)
		}
		if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, old) {
			t.Fatalf("the refused file changed on disk (err %v)", rerr)
		}
	}
}
