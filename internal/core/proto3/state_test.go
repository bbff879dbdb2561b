package proto3

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/wire/wiretest"
)

// TestP3StateRoundTripContinuesRun: a user is persisted mid-epoch
// (with a pending backup waiting for upload), restored in a "new
// process", and the run continues — including the eventual epoch audit
// passing on the combined history.
func TestP3StateRoundTripContinuesRun(t *testing.T) {
	h := newHarness(t, 2)
	// Epoch 0 fully; then one op of epoch 1 so user 0 holds a pending
	// epoch-0 backup that has NOT been uploaded yet.
	if err := h.epochRound("e0"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.doOn(h.server, h.server, 0, put("early-e1", "x")); err != nil {
		t.Fatal(err)
	}

	data, err := h.users[0].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreUser(signers[0], ring, data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != 1 || restored.pending == nil {
		t.Fatalf("restored epoch %d pending %v", restored.Epoch(), restored.pending)
	}
	h.users[0] = restored

	// Finish epoch 1 honoring the workload assumption (two ops per
	// user: user 0 already did one; user 1 needs both — its second op
	// uploads its epoch-0 backup). Then epoch 2's audit of epoch 0
	// must pass.
	if _, err := h.doOn(h.server, h.server, 0, put("late-e1-0", "y")); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if _, err := h.doOn(h.server, h.server, 1, put(fmt.Sprintf("late-e1-1-%d", j), "y")); err != nil {
			t.Fatal(err)
		}
	}
	h.server.AdvanceEpoch()
	if err := h.epochRound("e2"); err != nil {
		t.Fatalf("epoch 2 after restore: %v", err)
	}
}

func TestP3StateValidation(t *testing.T) {
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreUser(signers[0], ring, []byte("junk")); err == nil {
		t.Fatal("garbage must be rejected")
	}
	db := newHarness(t, 2)
	data, err := db.users[0].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreUser(signers[1], ring, data); err == nil {
		t.Fatal("identity mismatch must be rejected")
	}
}

// TestP3StateGoldenBytes pins the Protocol III user state (-update
// rewrites it) in both shapes — with and without a pending backup; each
// golden restores to a user that marshals to it again, and the gob-era
// spelling is refused.
func TestP3StateGoldenBytes(t *testing.T) {
	h := newHarness(t, 2)
	if err := h.epochRound("e0"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.doOn(h.server, h.server, 0, put("early-e1", "x")); err != nil {
		t.Fatal(err)
	}
	if h.users[0].pending == nil || h.users[1].pending != nil {
		t.Fatal("test bug: want user 0 with a pending backup and user 1 without")
	}
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"user-pending.state", "user.state"} {
		data, err := h.users[i].MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", name)
		wiretest.Bytes(t, path, data)
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, err := RestoreUser(signers[i], ring, golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, err := back.MarshalState(); err != nil || !bytes.Equal(again, golden) {
			t.Errorf("%s: restore + marshal is not the identity (err %v)", name, err)
		}
		for what, b := range map[string][]byte{"trailing byte": append(bytes.Clone(golden), 0), "truncated": golden[:len(golden)-1]} {
			if u, err := RestoreUser(signers[i], ring, b); err == nil {
				t.Errorf("%s, %s: restored %v", name, what, u)
			}
		}
	}
	old, err := os.ReadFile(filepath.Join("testdata", "golden", "gob-user.state"))
	if err != nil {
		t.Fatal(err)
	}
	if u, err := RestoreUser(signers[0], ring, old); !errors.Is(err, core.ErrStateFormat) || u != nil {
		t.Errorf("RestoreUser(gob-era state) = %v, %v; want core.ErrStateFormat and no user", u, err)
	}
}
