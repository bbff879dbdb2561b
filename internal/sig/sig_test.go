package sig

import (
	"crypto/rand"
	"testing"

	"trustedcvs/internal/digest"
)

func testSigners(t *testing.T, n int) ([]*Signer, *Ring) {
	t.Helper()
	signers, ring, err := DeterministicSigners(n, 1)
	if err != nil {
		t.Fatalf("DeterministicSigners: %v", err)
	}
	return signers, ring
}

func TestSignVerify(t *testing.T) {
	signers, ring := testSigners(t, 3)
	d := digest.OfBytes(digest.DomainState, []byte("state"))
	s := signers[1].Sign(d)
	if err := ring.Verify(1, d, s); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

func TestVerifyWrongUser(t *testing.T) {
	signers, ring := testSigners(t, 3)
	d := digest.OfBytes(digest.DomainState, []byte("state"))
	s := signers[1].Sign(d)
	if err := ring.Verify(2, d, s); err == nil {
		t.Fatal("signature attributed to wrong user must not verify")
	}
}

func TestVerifyWrongDigest(t *testing.T) {
	signers, ring := testSigners(t, 1)
	d := digest.OfBytes(digest.DomainState, []byte("state"))
	s := signers[0].Sign(d)
	other := digest.OfBytes(digest.DomainState, []byte("forged"))
	if err := ring.Verify(0, other, s); err == nil {
		t.Fatal("signature over different digest must not verify")
	}
}

func TestVerifyTamperedSignature(t *testing.T) {
	signers, ring := testSigners(t, 1)
	d := digest.OfBytes(digest.DomainState, []byte("state"))
	s := signers[0].Sign(d)
	s[0] ^= 0xFF
	if err := ring.Verify(0, d, s); err == nil {
		t.Fatal("tampered signature must not verify")
	}
}

func TestUnknownUser(t *testing.T) {
	_, ring := testSigners(t, 1)
	d := digest.OfBytes(digest.DomainState, []byte("state"))
	if err := ring.Verify(99, d, nil); err == nil {
		t.Fatal("unknown user must be rejected")
	}
}

func TestGenesisReserved(t *testing.T) {
	if _, err := NewSignerFrom(GenesisID, rand.Reader); err == nil {
		t.Fatal("GenesisID must not be able to sign")
	}
}

func TestUsersSorted(t *testing.T) {
	signers, _ := testSigners(t, 5)
	r := NewRing(signers[3], signers[0], signers[4], signers[1], signers[2])
	ids := r.Users()
	if len(ids) != 5 {
		t.Fatalf("Users() = %v, want 5 entries", ids)
	}
	for i, id := range ids {
		if id != UserID(i) {
			t.Fatalf("Users() = %v, want ascending 0..4", ids)
		}
	}
	if len(r.keys) != 5 {
		t.Fatalf("ring holds %d keys, want 5", len(r.keys))
	}
}

func TestDeterministicSignersStable(t *testing.T) {
	a, _, err := DeterministicSigners(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := DeterministicSigners(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !a[0].pub.Equal(b[0].pub) || !a[1].pub.Equal(b[1].pub) {
		t.Fatal("same seed must produce same keys")
	}
	c, _, err := DeterministicSigners(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].pub.Equal(c[0].pub) {
		t.Fatal("different seeds must produce different keys")
	}
}

func TestUserIDString(t *testing.T) {
	if got := UserID(3).String(); got != "user(3)" {
		t.Errorf("UserID(3).String() = %q", got)
	}
	if got := GenesisID.String(); got != "user(genesis)" {
		t.Errorf("GenesisID.String() = %q", got)
	}
}
