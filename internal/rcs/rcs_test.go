package rcs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyFile(t *testing.T) {
	a := NewArchive()
	// An out-of-order push makes the path known without giving it a
	// revision.
	if a.Extend("a.txt", 2, HashContent([]byte("v2\n"))) {
		t.Fatal("revision 2 must not extend an empty chain")
	}
	if n := len(a.Revisions("a.txt")); n != 0 {
		t.Fatalf("new file has %d revisions", n)
	}
	if _, err := a.At("a.txt", 1); !errors.Is(err, ErrNoRevision) {
		t.Fatalf("At(1) on empty file: %v", err)
	}
}

func TestAtOutOfRange(t *testing.T) {
	a := NewArchive()
	a.Extend("a", 1, HashContent([]byte("x\n")))
	for _, n := range []uint64{0, 2, 100, ^uint64(0)} {
		if _, err := a.At("a", n); !errors.Is(err, ErrNoRevision) {
			t.Errorf("At(%d): %v", n, err)
		}
	}
}

func TestArchive(t *testing.T) {
	a := NewArchive()
	if _, err := a.At("missing", 1); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("lookup of missing file: %v", err)
	}
	h := HashContent([]byte("hello\n"))
	if !a.Extend("x.txt", 1, h) {
		t.Fatal("revision 1 must extend an empty chain")
	}
	if a.Extend("x.txt", 1, HashContent([]byte("again\n"))) || a.Extend("x.txt", 3, h) {
		t.Fatal("only revision len+1 may extend a chain")
	}
	if got, err := a.At("x.txt", 1); err != nil || got != h {
		t.Fatalf("At(1) = %v, %v", got, err)
	}
	a.Extend("b.txt", 1, h)
	a.Extend("a.txt", 1, h)
	paths := a.Paths()
	if len(paths) != 3 || paths[0] != "a.txt" || paths[2] != "x.txt" {
		t.Fatalf("Paths() = %v", paths)
	}
	if a.Len() != 3 {
		t.Fatalf("Len() = %d", a.Len())
	}
}

func TestArchiveForkDiverges(t *testing.T) {
	shared, forkOnly := HashContent([]byte("shared\n")), HashContent([]byte("fork-only\n"))
	a := NewArchive()
	a.Extend("f", 1, shared)

	b := a.Fork()
	if !b.Extend("f", 2, forkOnly) {
		t.Fatal("fork refused its own revision")
	}

	// The original must not see the fork's commit.
	if n := len(a.Revisions("f")); n != 1 {
		t.Fatalf("original gained revisions from fork: %d", n)
	}
	if n := len(b.Revisions("f")); n != 2 {
		t.Fatalf("fork lost its commit: %d", n)
	}
	// A later commit to the original must not leak into the fork either.
	a.Extend("f", 2, HashContent([]byte("original-only\n")))
	if got, err := b.At("f", 2); err != nil || got != forkOnly {
		t.Fatalf("fork's revision 2 changed: %v %v", got, err)
	}
	// And historical revisions remain intact in both.
	if got, err := b.At("f", 1); err != nil || got != shared {
		t.Fatalf("fork lost shared history: %v %v", got, err)
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
// every historical revision resolves to exactly the bytes committed.
func TestQuickRevisionChain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		archive, blobs := NewArchive(), NewBlobStore()
		var versions []string
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			// Revisions repeat now and then: a revert shares its blob.
			doc := fmt.Sprintf("l%d\n", rng.Intn(8))
			versions = append(versions, doc)
			if !archive.Extend("f", uint64(i+1), blobs.Put([]byte(doc))) {
				t.Logf("Extend(%d) refused", i+1)
				return false
			}
		}
		for i, want := range versions {
			h, err := archive.At("f", uint64(i+1))
			if err != nil {
				t.Logf("At(%d): %v", i+1, err)
				return false
			}
			got, err := blobs.Get(h)
			if err != nil || string(got) != want {
				t.Logf("At(%d): %q want %q err %v", i+1, got, want, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
