package proto1

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/wire/wiretest"
)

func TestP1StateRoundTripContinuesRun(t *testing.T) {
	h := newHarness(t, 2, 1000)
	for i := 0; i < 6; i++ {
		h.do(i%2, put("k", "v"))
	}
	data, err := h.users[1].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// "New process": rebuild keys from the same source, restore.
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreUser(signers[1], ring, data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.LCtr() != h.users[1].LCtr() {
		t.Fatalf("restored lctr %d != %d", restored.LCtr(), h.users[1].LCtr())
	}
	h.users[1] = restored
	for i := 0; i < 4; i++ {
		h.do(1, put("k2", "w"))
	}
	if err := h.sync(); err != nil {
		t.Fatalf("sync after restore: %v", err)
	}
}

func TestP1StateRestoreValidation(t *testing.T) {
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreUser(signers[0], ring, []byte("junk")); err == nil {
		t.Fatal("garbage must be rejected")
	}
	u := NewUser(signers[0], ring, 4)
	data, err := u.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Restoring with the WRONG signer must be refused: the counters
	// belong to user 0.
	if _, err := RestoreUser(signers[1], ring, data); err == nil {
		t.Fatal("identity mismatch must be rejected")
	}
	if _, err := RestoreUser(signers[0], ring, data); err != nil {
		t.Fatalf("valid restore failed: %v", err)
	}
}

// TestP1StateGoldenBytes pins the Protocol I register file's payload
// (-update rewrites it); the golden restores to a user that marshals to
// it again, and the gob-era spelling of the same counters is refused.
func TestP1StateGoldenBytes(t *testing.T) {
	h := newHarness(t, 2, 16)
	for i := 0; i < 5; i++ {
		h.do(i%2, put("k", "v"))
	}
	data, err := h.users[1].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "user.state")
	wiretest.Bytes(t, path, data)
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RestoreUser(signers[1], ring, golden)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := back.MarshalState(); err != nil || !bytes.Equal(again, golden) {
		t.Errorf("restore + marshal is not the identity (err %v)", err)
	}
	if back.LCtr() != h.users[1].LCtr() {
		t.Errorf("restored lctr %d, the live user's is %d", back.LCtr(), h.users[1].LCtr())
	}

	old, err := os.ReadFile(filepath.Join("testdata", "golden", "gob-user.state"))
	if err != nil {
		t.Fatal(err)
	}
	if u, err := RestoreUser(signers[0], ring, old); !errors.Is(err, core.ErrStateFormat) || u != nil {
		t.Errorf("RestoreUser(gob-era state) = %v, %v; want core.ErrStateFormat and no user", u, err)
	}
	for name, b := range map[string][]byte{
		"zero sync period": {core.StateFormatI, 1, 0, 0, 0, 0},
		"trailing byte":    append(bytes.Clone(golden), 0),
		"truncated":        golden[:len(golden)-1],
	} {
		if u, err := RestoreUser(signers[1], ring, b); err == nil {
			t.Errorf("%s: restored %v", name, u)
		}
	}
}
