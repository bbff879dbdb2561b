package cvs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

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
	if again, err := s.Fetch("f", 1, want); err != nil || string(again) != "original\n" {
		t.Fatalf("caller mutation leaked into the store: %q %v", again, err)
	}
	// Stored blobs are immutable: pushing the same content again, under
	// any label, keeps the one blob already there.
	first := s.blobs[want]
	if err := s.Push("g", 9, []byte("original\n")); err != nil {
		t.Fatal(err)
	}
	if len(s.blobs) != 1 || &s.blobs[want][0] != &first[0] {
		t.Fatalf("a duplicate push replaced the stored blob (%d blobs)", len(s.blobs))
	}
}

// TestStoreEmptyFile: a hash nobody pushed — a file with no commits —
// is refused, never answered with empty content.
func TestStoreEmptyFile(t *testing.T) {
	s := NewStore()
	if got, err := s.Fetch("f", 1, rcs.HashContent(nil)); err == nil {
		t.Fatalf("Fetch on an empty store = %q", got)
	}
	if err := s.Push("f", 1, []byte("v1\n")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Fetch("f", 0, rcs.HashContent(nil)); err == nil {
		t.Fatalf("Fetch of empty content nobody pushed = %q", got)
	}
}

// TestQuickRevisionChain pushes random version histories and verifies
// every historical revision resolves, by the hash recorded for it, to
// exactly the bytes committed.
func TestQuickRevisionChain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		var versions []string
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			// Revisions repeat now and then: a revert shares its blob.
			doc := fmt.Sprintf("l%d\n", rng.Intn(8))
			versions = append(versions, doc)
			if err := s.Push("f", uint64(i+1), []byte(doc)); err != nil {
				t.Log(err)
				return false
			}
		}
		for i, want := range versions {
			got, err := s.Fetch("f", uint64(i+1), rcs.HashContent([]byte(want)))
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
	s.blobs[hash][0] ^= 0xFF
	if got, err := s.Fetch("f", 1, hash); !errors.Is(err, rcs.ErrCorrupt) || got != nil {
		t.Fatalf("Fetch of a tampered blob: %q %v", got, err)
	}
	if got, err := s.View("f", 1, hash); !errors.Is(err, rcs.ErrCorrupt) || got != nil {
		t.Fatalf("View of a tampered blob: %q %v", got, err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, rcs.ErrCorrupt) {
		t.Fatalf("Snapshot over a tampered blob: %v", err)
	}
}

// TestStoreViewServesInPlace: View hands out the stored blob itself —
// serving copies nothing — while Fetch hands out a copy.
func TestStoreViewServesInPlace(t *testing.T) {
	s := NewStore()
	content := []byte("served as stored\n")
	hash := rcs.HashContent(content)
	if err := s.Push("f", 1, content); err != nil {
		t.Fatal(err)
	}
	view, err := s.View("f", 1, hash)
	if err != nil || !bytes.Equal(view, content) || &view[0] != &s.blobs[hash][0] {
		t.Fatalf("View: %q %v, not the stored blob", view, err)
	}
	got, err := s.Fetch("f", 1, hash)
	if err != nil || !bytes.Equal(got, content) || &got[0] == &s.blobs[hash][0] {
		t.Fatalf("Fetch: %q %v, not a copy", got, err)
	}
	if _, err := s.View("f", 2, rcs.HashContent([]byte("other"))); err == nil {
		t.Fatal("View of a hash nobody pushed succeeded")
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

// TestRestoreKeepsChainlessBlobs: the store keeps no record of which
// path or revision a blob was pushed for, so every blob — pushed out of
// order, or for a commit that never happened — survives snapshot and
// restore on the strength of its hash alone.
func TestRestoreKeepsChainlessBlobs(t *testing.T) {
	s := NewStore()
	second, first, orphan := []byte("second\n"), []byte("first\n"), []byte("never committed\n")
	if err := s.Push("f", 2, second); err != nil {
		t.Fatal(err)
	}
	if err := s.Push("f", 1, first); err != nil {
		t.Fatal(err)
	}
	if err := s.Push("", 0, orphan); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Blobs) != 3 {
		t.Fatalf("snapshot holds %d blobs, want 3", len(snap.Blobs))
	}
	r, err := RestoreStore(viaBytes(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range [][]byte{first, second, orphan} {
		got, err := r.Fetch("f", 0, rcs.HashContent(want))
		if err != nil || string(got) != string(want) {
			t.Fatalf("restored Fetch of %q: %q %v", want, got, err)
		}
	}
	if _, err := r.Fetch("f", 3, rcs.HashContent([]byte("third\n"))); err == nil {
		t.Fatal("restore invented a blob")
	}
}

// TestSnapshotOneSpelling: a snapshot is the blobs in strictly
// increasing digest order, so two stores fed the same content in
// different orders write the same bytes, and the decoder refuses every
// other arrangement of them.
func TestSnapshotOneSpelling(t *testing.T) {
	contents := [][]byte{[]byte("a\n"), []byte("b\n"), []byte("c\n"), nil, []byte("d\n")}
	encode := func(order ...int) []byte {
		s := NewStore()
		for _, i := range order {
			if err := s.Push("f", uint64(i), contents[i]); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return AppendSnapshot(nil, snap)
	}
	enc := encode(0, 1, 2, 3, 4)
	if other := encode(4, 2, 0, 3, 1, 2); !bytes.Equal(other, enc) {
		t.Fatal("the same blobs pushed in another order snapshot to different bytes")
	}
	r := binenc.NewReader(enc)
	snap := ReadSnapshot(r)
	if err := r.Close(); err != nil || len(snap.Blobs) != len(contents) {
		t.Fatalf("the honest snapshot decodes to %d blobs, err %v", len(snap.Blobs), err)
	}
	for name, blobs := range map[string][][]byte{
		"swapped":   {snap.Blobs[1], snap.Blobs[0], snap.Blobs[2], snap.Blobs[3], snap.Blobs[4]},
		"duplicate": {snap.Blobs[0], snap.Blobs[1], snap.Blobs[1], snap.Blobs[2]},
	} {
		r := binenc.NewReader(AppendSnapshot(nil, &StoreSnapshot{Blobs: blobs}))
		ReadSnapshot(r)
		if err := r.Close(); err == nil || !strings.Contains(err.Error(), "digest order") {
			t.Errorf("%s blobs: decode error %v, want a digest-order refusal", name, err)
		}
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
				// A neighbour's blob may or may not be there yet; only races matter.
				_, _ = s.Fetch("", 0, rcs.HashContent(content((w+1)%workers, rev)))
				if rev%10 == 3 {
					if _, err := s.Snapshot(); err != nil {
						t.Errorf("Snapshot: %v", err)
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
	if len(snap.Blobs) != workers*revs {
		t.Fatalf("store holds %d blobs, want %d", len(snap.Blobs), workers*revs)
	}
}
