package cvs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/rcs"
)

// TestStorePushHashesAndCopies pins the write half of the store's
// discipline: the blob is filed under the hash the store computed from
// the bytes it kept, and those bytes are its own copy.
func TestStorePushHashesAndCopies(t *testing.T) {
	s := NewStore()
	buf := []byte("original\n")
	want := rcs.HashContent(buf)
	if err := s.Push("f", 1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, err := s.Fetch("f", 1, want)
	if err != nil || string(got) != "original\n" {
		t.Fatalf("Fetch after the caller reused its buffer: %q %v", got, err)
	}
	// The served bytes are a copy too.
	got[0] = 'X'
	if again, err := s.FetchRev("f", 1); err != nil || string(again) != "original\n" {
		t.Fatalf("caller mutation leaked into the store: %q %v", again, err)
	}
}

// TestStoreRefusesTamperedBlob pins the read half: a stored blob that
// no longer hashes to its key is refused with rcs.ErrCorrupt by every
// path that hands content out, never served.
func TestStoreRefusesTamperedBlob(t *testing.T) {
	s := NewStore()
	content := []byte("true\n")
	hash := rcs.HashContent(content)
	if err := s.Push("f", 1, content); err != nil {
		t.Fatal(err)
	}
	stored, _ := s.blobs.Peek(hash)
	stored[0] ^= 0xFF
	if got, err := s.Fetch("f", 1, hash); !errors.Is(err, rcs.ErrCorrupt) || got != nil {
		t.Fatalf("Fetch of a tampered blob: %q %v", got, err)
	}
	if got, err := s.FetchRev("f", 1); !errors.Is(err, rcs.ErrCorrupt) || got != nil {
		t.Fatalf("FetchRev of a tampered blob: %q %v", got, err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, rcs.ErrCorrupt) {
		t.Fatalf("Snapshot over a tampered blob: %v", err)
	}
}

// TestStoreMissingBlobRefusal pins the refusal text: the benchmark's
// push-race detector and the CLI match on it.
func TestStoreMissingBlobRefusal(t *testing.T) {
	s := NewStore()
	hash := rcs.HashContent([]byte("never pushed"))
	_, err := s.Fetch("dir/f.txt", 7, hash)
	want := fmt.Sprintf("cvs: no content for dir/f.txt@7 (%s)", hash.Short())
	if err == nil || err.Error() != want {
		t.Fatalf("refusal = %v, want %q", err, want)
	}
	if _, err := s.FetchRev("dir/f.txt", 7); !errors.Is(err, rcs.ErrUnknownFile) {
		t.Fatalf("FetchRev of an unknown path: %v", err)
	}
}

// viaBytes sends a snapshot through its persistent encoding, as a
// checkpoint does, checking that what decodes re-encodes identically.
func viaBytes(t *testing.T, snap *StoreSnapshot) *StoreSnapshot {
	t.Helper()
	enc := AppendSnapshot(nil, snap)
	r := binenc.NewReader(enc)
	back := ReadSnapshot(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if again := AppendSnapshot(nil, back); !bytes.Equal(again, enc) {
		t.Fatal("decode + encode is not the identity")
	}
	return back
}

// TestRestoreKeepsChainlessBlobs pushes f@2 before f@1, so one blob
// belongs to no chain: it must survive snapshot and restore.
func TestRestoreKeepsChainlessBlobs(t *testing.T) {
	s := NewStore()
	second, first := []byte("second\n"), []byte("first\n")
	if err := s.Push("f", 2, second); err != nil {
		t.Fatal(err)
	}
	if err := s.Push("f", 1, first); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Blobs) != 2 || len(snap.Files) != 1 || len(snap.Files[0].Hashes) != 1 {
		t.Fatalf("snapshot holds %d blobs, chains %+v", len(snap.Blobs), snap.Files)
	}
	snap = viaBytes(t, snap)
	r, err := RestoreStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	for rev, want := range map[uint64][]byte{1: first, 2: second} {
		got, err := r.Fetch("f", rev, rcs.HashContent(want))
		if err != nil || string(got) != string(want) {
			t.Fatalf("restored Fetch f@%d: %q %v", rev, got, err)
		}
	}
	if got, err := r.FetchRev("f", 1); err != nil || string(got) != "first\n" {
		t.Fatalf("restored chain: %q %v", got, err)
	}
	if _, err := r.FetchRev("f", 2); !errors.Is(err, rcs.ErrNoRevision) {
		t.Fatalf("restore invented a revision: %v", err)
	}

	// A chain naming a blob the snapshot does not carry is refused.
	snap.Blobs = snap.Blobs[1:]
	if _, err := RestoreStore(snap); err == nil {
		t.Fatal("restore accepted a chain whose blob is missing")
	}
}

// TestStoreConcurrentUse mixes every store entry point from 8
// goroutines; run under -race it is the check that hashing and copying
// outside the lock touch nothing shared.
func TestStoreConcurrentUse(t *testing.T) {
	const workers, revs = 8, 40
	s := NewStore()
	content := func(w, rev int) []byte { return []byte(fmt.Sprintf("worker %d rev %d\n", w, rev)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("f%d", w)
			for rev := 1; rev <= revs; rev++ {
				c := content(w, rev)
				if err := s.Push(path, uint64(rev), c); err != nil {
					t.Error(err)
					return
				}
				if got, err := s.Fetch(path, uint64(rev), rcs.HashContent(c)); err != nil || string(got) != string(c) {
					t.Errorf("Fetch %s@%d: %q %v", path, rev, got, err)
				}
				if got, err := s.FetchRev(path, uint64(rev)); err != nil || string(got) != string(c) {
					t.Errorf("FetchRev %s@%d: %q %v", path, rev, got, err)
				}
				// A neighbour's chain may be anywhere; only races matter.
				_, _ = s.FetchRev(fmt.Sprintf("f%d", (w+1)%workers), uint64(rev))
				switch rev % 10 {
				case 3:
					if _, err := s.Snapshot(); err != nil {
						t.Errorf("Snapshot: %v", err)
					}
				case 7:
					f := s.Fork()
					if err := f.Push(path, uint64(rev+1), []byte("fork only\n")); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Blobs) != workers*revs || len(snap.Files) != workers {
		t.Fatalf("store holds %d blobs in %d chains, want %d in %d", len(snap.Blobs), len(snap.Files), workers*revs, workers)
	}
	for _, chain := range snap.Files {
		if len(chain.Hashes) != revs {
			t.Fatalf("%s has %d revisions, want %d", chain.Path, len(chain.Hashes), revs)
		}
	}
}
