package rcs

import (
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
	if digest.OfBytes(digest.DomainRecord, content) == d {
		t.Fatal("a blob hash equals a record digest of the same bytes")
	}
	if err := CheckContent(content, d); err != nil {
		t.Fatalf("CheckContent refused the bytes it names: %v", err)
	}
	if err := CheckContent([]byte("missing"), d); err == nil {
		t.Fatal("CheckContent accepted bytes another address names")
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
		if err := CheckContent(bad, d); err == nil {
			t.Fatalf("CheckContent accepted a blob with byte %d flipped", i)
		}
	}
	for _, bad := range [][]byte{content[:len(content)-1], append(append([]byte(nil), content...), 0), nil} {
		if err := CheckContent(bad, d); err == nil {
			t.Fatalf("CheckContent accepted %q", bad)
		}
	}
}
