package server

import (
	"bytes"
	"fmt"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/vdb"
)

// TestP2SaveLoadRestartContinuity is the scenario that matters: a
// client verifies operations, the server restarts from a snapshot, and
// the SAME client (whose registers commit to the pre-restart history)
// keeps operating and passes the synchronization check.
func TestP2SaveLoadRestartContinuity(t *testing.T) {
	db := vdb.New(0)
	srv := NewP2(db)
	store := cvs.NewStore()
	user := proto2.NewUser(0, db.Root(), 1000)
	doer := func(s Server, op vdb.Op) error {
		raw, err := s.HandleOp(user.Request(op))
		if err != nil {
			return err
		}
		_, err = user.HandleResponse(op, raw.(*core.OpResponseII))
		return err
	}

	// Some verified history plus content.
	commit := func(s Server, path, content string, rev uint64) error {
		op := &cvs.CommitOp{
			Files:  []cvs.CommitFile{{Path: path, Hash: rcs.HashContent([]byte(content))}},
			Author: "u0", TimeUnix: 1,
		}
		if err := doer(s, op); err != nil {
			return err
		}
		return store.Push(path, rev, []byte(content))
	}
	for i := 1; i <= 5; i++ {
		if err := commit(srv, "f", fmt.Sprintf("v%d\n", i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := saveP2(&buf, srv, store); err != nil {
		t.Fatal(err)
	}

	// "Restart": brand-new process state from the snapshot.
	srv2, store2, err := loadP2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.DB().Root() != srv.DB().Root() {
		t.Fatal("restored root digest differs")
	}
	if srv2.DB().Ctr() != srv.DB().Ctr() {
		t.Fatal("restored ctr differs")
	}
	// Historical content survives: every revision's restored,
	// authenticated record names a blob the restored store serves.
	for i := 1; i <= 5; i++ {
		op := &cvs.CheckoutOp{Paths: []string{"f"}, Rev: uint64(i)}
		raw, err := srv2.HandleOp(user.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		ans, err := user.HandleResponse(op, raw.(*core.OpResponseII))
		if err != nil {
			t.Fatal(err)
		}
		st := ans.(cvs.CheckoutAnswer).Files[0]
		got, err := store2.Fetch("f", st.Rev, st.Hash)
		if err != nil || string(got) != fmt.Sprintf("v%d\n", i) {
			t.Fatalf("restored content f@%d: %q %v", i, got, err)
		}
	}

	// The ORIGINAL client continues against the restored server: its
	// registers must chain (same tagged states) and sync must pass.
	store = store2
	if err := commit(srv2, "f", "v6\n", 6); err != nil {
		t.Fatalf("post-restart op: %v", err)
	}
	if err := user.CompleteSync([]core.SyncReportII{user.SyncReport()}); err != nil {
		t.Fatalf("sync after restart: %v", err)
	}
}

func TestSaveP2RejectsWrongProtocol(t *testing.T) {
	db := vdb.New(0)
	if _, err := CheckpointP2(NewP3(db), cvs.NewStore(), nil); err == nil {
		t.Fatal("a checkpoint must reject non-P2 servers")
	}
}

func TestLoadP2RejectsGarbage(t *testing.T) {
	if _, err := DecodeP2Snapshot(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("the snapshot loader must reject garbage")
	}
}
