package rcs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"trustedcvs/internal/digest"
)

// TestEmptyFile: a hash nobody pushed — a file with no commits — is
// refused, never answered with empty content.
func TestEmptyFile(t *testing.T) {
	s := NewBlobStore()
	if s.Len() != 0 {
		t.Fatalf("new store holds %d blobs", s.Len())
	}
	if got, err := s.Get(HashContent(nil)); err == nil {
		t.Fatalf("Get on an empty store = %q", got)
	}
	if _, ok := s.Peek(HashContent([]byte("v1\n"))); ok {
		t.Fatal("Peek on an empty store found a blob")
	}
}

func TestBlobStore(t *testing.T) {
	s := NewBlobStore()
	buf := []byte("content")
	d := s.Put(buf)
	// Put must copy the caller's buffer.
	buf[0] = 'X'
	got, err := s.Get(d)
	if err != nil || string(got) != "content" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Idempotent put.
	if d2 := s.Put([]byte("content")); d2 != d || s.Len() != 1 {
		t.Fatal("duplicate Put must be a no-op")
	}
	if _, err := s.Get(HashContent([]byte("missing"))); err == nil {
		t.Fatal("Get of missing blob must fail")
	}
	// Returned blob must be a copy.
	got[0] = 'X'
	again, err := s.Get(d)
	if err != nil || string(again) != "content" {
		t.Fatal("caller mutation leaked into the store")
	}
	// A clone shares blobs but not the map.
	c := s.Clone()
	c.Put([]byte("clone-only"))
	if s.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: %d / %d blobs", s.Len(), c.Len())
	}
}

// TestBlobStoreRefusesCorruptBlob flips a byte of a stored blob: Get
// and VerifiedCopy must answer ErrCorrupt, never the bytes.
func TestBlobStoreRefusesCorruptBlob(t *testing.T) {
	s := NewBlobStore()
	d := s.Put([]byte("content"))
	stored, ok := s.Peek(d)
	if !ok {
		t.Fatal("Peek lost the blob")
	}
	stored[0] ^= 0xFF
	if got, err := s.Get(d); !errors.Is(err, ErrCorrupt) || got != nil {
		t.Fatalf("Get of a tampered blob = %q, %v", got, err)
	}
}

// TestQuickRevisionChain pushes random version histories and verifies
// every historical revision resolves, by the hash recorded for it, to
// exactly the bytes committed.
func TestQuickRevisionChain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blobs := NewBlobStore()
		var versions []string
		var chain []digest.Digest
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			// Revisions repeat now and then: a revert shares its blob.
			doc := fmt.Sprintf("l%d\n", rng.Intn(8))
			versions = append(versions, doc)
			chain = append(chain, blobs.Put([]byte(doc)))
		}
		for i, want := range versions {
			got, err := blobs.Get(chain[i])
			if err != nil || string(got) != want {
				t.Logf("revision %d: %q want %q err %v", i+1, got, want, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
