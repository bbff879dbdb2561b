package rcs

import (
	"errors"
	"testing"

	"trustedcvs/internal/digest"
)

// TestBlobStore pins the half of the blob store's contract that rcs
// owns: blobs are addressed by HashContent, so equal content shares one
// address (a repeated push is a no-op), distinct content does not, and
// a blob hash never collides with another object kind's digest of the
// same bytes. CheckContent accepts exactly the bytes an address names.
func TestBlobStore(t *testing.T) {
	content := []byte("content")
	d := HashContent(content)
	if again := HashContent([]byte("content")); again != d {
		t.Fatal("equal content got two addresses")
	}
	if other := HashContent([]byte("content\n")); other == d {
		t.Fatal("distinct content shares an address")
	}
	if HashContent(nil) == d || HashContent(nil) != HashContent([]byte{}) {
		t.Fatal("the empty blob's address is not its own")
	}
	if digest.OfBytes(digest.DomainLeaf, content) == d {
		t.Fatal("a blob hash equals a Merkle leaf digest of the same bytes")
	}
	if c, err := CheckContent(content, d); err != nil || string(c.content) != string(content) {
		t.Fatalf("CheckContent refused the bytes it names: %q, %v", c.content, err)
	}
	if c, err := CheckContent([]byte("missing"), d); err == nil || c.content != nil {
		t.Fatalf("CheckContent accepted bytes another address names: %q", c.content)
	}
}

// TestBlobStoreRefusesCorruptBlob flips each byte of a fetched blob in
// turn, and truncates and extends it: CheckContent must refuse every
// one, so no corrupted blob reaches a caller as the revision pinned.
func TestBlobStoreRefusesCorruptBlob(t *testing.T) {
	content := []byte("content")
	d := HashContent(content)
	for i := range content {
		bad := append([]byte(nil), content...)
		bad[i] ^= 0xFF
		if _, err := CheckContent(bad, d); err == nil {
			t.Fatalf("CheckContent accepted a blob with byte %d flipped", i)
		}
	}
	for _, bad := range [][]byte{content[:len(content)-1], append(append([]byte(nil), content...), 0), nil} {
		if _, err := CheckContent(bad, d); err == nil {
			t.Fatalf("CheckContent accepted %q", bad)
		}
	}
}

// TestFilesTakeOnlyChecked pins the boundary of a checkout's result:
// Files.Add takes what CheckContent passed, the empty blob included,
// and refuses both the zero Checked, which any package can write, and
// what a refused check returned.
func TestFilesTakeOnlyChecked(t *testing.T) {
	f := NewFiles(2)
	empty, err := CheckContent(nil, HashContent(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add("empty", empty); err != nil {
		t.Fatalf("Add refused a checked empty blob: %v", err)
	}
	refused, _ := CheckContent([]byte("tampered"), HashContent([]byte("content")))
	for name, c := range map[string]Checked{"zero": {}, "refused": refused} {
		if err := f.Add(name, c); !errors.Is(err, errUnchecked) {
			t.Fatalf("Add of the %s Checked returned %v, want errUnchecked", name, err)
		}
	}
	if _, ok := f.Map()["empty"]; !ok || len(f.Map()) != 1 {
		t.Fatalf("Files holds %q, want only the checked empty blob", f.Map())
	}
}
