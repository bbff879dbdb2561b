package proto2

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire/wiretest"
)

// TestStateRoundTripContinuesRun is the CLI scenario: a user runs some
// verified operations, persists its registers, is reconstructed in a
// "new process", continues operating, and still passes the
// synchronization check — i.e. the restored registers really are the
// same protocol state.
func TestStateRoundTripContinuesRun(t *testing.T) {
	h := newHarness(t, 2, 1000)
	for i := 0; i < 7; i++ {
		h.do(i%2, put("k", "v"))
	}
	data, err := h.users[0].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreUser(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.ID() != h.users[0].ID() || restored.LCtr() != h.users[0].LCtr() {
		t.Fatalf("restored identity/counters differ: %v %d", restored.ID(), restored.LCtr())
	}
	// The restored user replaces the original and keeps operating.
	h.users[0] = restored
	for i := 0; i < 5; i++ {
		h.do(0, put("k2", "w"))
	}
	if err := h.sync(); err != nil {
		t.Fatalf("sync after state restore: %v", err)
	}
}

// TestStateRestoreDetectsReplayAfterRestore: the restored gctr still
// protects against counter replays that span the "restart".
func TestStateRestoreDetectsReplayAfterRestore(t *testing.T) {
	h := newHarness(t, 1, 1000)
	snapshot := h.server.Fork()
	h.do(0, put("a", "1"))

	data, err := h.users[0].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreUser(data)
	if err != nil {
		t.Fatal(err)
	}
	op := put("a", "2")
	resp, err := snapshot.HandleOp(restored.Request(op))
	if err != nil {
		t.Fatal(err)
	}
	_, err = restored.HandleResponse(op, resp)
	if de, ok := core.AsDetection(err); !ok || de.Class != core.CounterReplay {
		t.Fatalf("replay across restore not caught: %v", err)
	}
}

func TestStateRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreUser([]byte("junk")); err == nil {
		t.Fatal("garbage state must be rejected")
	}
	// Zero sync period (e.g. an empty struct) is invalid.
	u := NewUser(1, vdb.New(0).Root(), 5)
	data, err := u.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreUser(data); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

// goldenStates is the persisted Protocol II user: a single-tree user a
// few operations in.
func goldenStates(t testing.TB) map[string]*User {
	db := vdb.New(0)
	single := &harness{server: NewServer(db), users: []*User{NewUser(0, db.Root(), 16), NewUser(1, db.Root(), 16)}}
	for i := 0; i < 3; i++ {
		if _, err := single.doOn(single.server, i%2, put("k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*User{"user-single.state": single.users[0]}
}

// TestStateGoldenBytes pins the register file's payload: today's
// MarshalState must produce the checked-in bytes (-update rewrites
// them), and those bytes restore to a user that marshals to them again.
func TestStateGoldenBytes(t *testing.T) {
	for name, u := range goldenStates(t) {
		data, err := u.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", name)
		wiretest.Bytes(t, path, data)
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, err := RestoreUser(golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, err := back.MarshalState(); err != nil || !bytes.Equal(again, golden) {
			t.Errorf("%s: restore + marshal is not the identity (err %v)", name, err)
		}
		if back.SyncReport().Sigma != u.SyncReport().Sigma || back.LCtr() != u.LCtr() {
			t.Errorf("%s: restored registers differ from the live user's", name)
		}
	}
}

// TestOldFormatStateRefused: a state a gob-era binary wrote, a forest
// user's state (a sharded database's per-shard chains), or one of
// another protocol is refused with core.ErrStateFormat, never guessed
// at: wrong registers would convict an honest server.
func TestOldFormatStateRefused(t *testing.T) {
	for _, name := range []string{"gob-user.state", "gob-user-forest.state", "user-forest.state"} {
		old, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if u, err := RestoreUser(old); !errors.Is(err, core.ErrStateFormat) || u != nil {
			t.Errorf("RestoreUser(%s) = %v, %v; want core.ErrStateFormat and no user", name, u, err)
		}
	}
	for name, b := range map[string][]byte{"empty": nil, "proto1 state": {core.StateFormatI, 0, 16, 0, 0, 0}} {
		if _, err := RestoreUser(b); !errors.Is(err, core.ErrStateFormat) {
			t.Errorf("RestoreUser(%s) = %v, want core.ErrStateFormat", name, err)
		}
	}
}

// TestStateRestoreHostile: the shapes a body can lie with behind a
// correct format byte.
func TestStateRestoreHostile(t *testing.T) {
	single, _ := goldenStates(t)["user-single.state"].MarshalState()
	// id, k, sinceSync, then the tagged Registers and the initial state.
	head := func(k byte) []byte { return append([]byte{core.StateFormatII, 0, k, 0}, single[4:len(single)-1]...) }
	for name, b := range map[string][]byte{
		"zero sync period": append(head(0), 0),
		"trailing byte":    append(bytes.Clone(single), 0),
		"truncated":        single[:len(single)-1],
		"registers' tag":   append([]byte{core.StateFormatII, 0, 16, 0, 25}, single[5:]...),
	} {
		if u, err := RestoreUser(b); err == nil || errors.Is(err, core.ErrStateFormat) {
			t.Errorf("%s: RestoreUser = %v, %v; want a refusal of the body", name, u, err)
		}
	}
	if _, err := RestoreUser(append(head(16), 0)); err != nil {
		t.Fatalf("test bug: the rebuilt honest state is refused: %v", err)
	}
}

// FuzzUserStateRestore: a register file is the user's whole memory of
// the repository. Arbitrary bytes must be refused cleanly or restore to
// a user that marshals back to exactly those bytes.
func FuzzUserStateRestore(f *testing.F) {
	for _, u := range goldenStates(f) {
		data, err := u.MarshalState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	// A forest user's state, which must be refused.
	forest, err := os.ReadFile(filepath.Join("testdata", "golden", "user-forest.state"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forest)
	f.Add(forest[:len(forest)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		u, err := RestoreUser(b)
		if err != nil {
			return
		}
		if again, err := u.MarshalState(); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("accepted state %x marshals back as %x (err %v)", b, again, err)
		}
	})
}
