package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"strings"
	"testing"
	"testing/quick"
)

func TestZero(t *testing.T) {
	var d Digest
	if !d.IsZero() {
		t.Fatal("zero digest should report IsZero")
	}
	if OfBytes(DomainLeaf, nil).IsZero() {
		t.Fatal("hash of empty input should not be the zero digest")
	}
}

func TestDomainSeparation(t *testing.T) {
	a := OfBytes(DomainLeaf, []byte("x"))
	b := OfBytes(DomainInternal, []byte("x"))
	if a == b {
		t.Fatal("same input under different domains must hash differently")
	}
}

func TestLengthPrefixing(t *testing.T) {
	// Without length prefixes these two would collide:
	// ("ab","c") vs ("a","bc").
	a := NewHasher(DomainLeaf).String("ab").String("c").Sum()
	b := NewHasher(DomainLeaf).String("a").String("bc").Sum()
	if a == b {
		t.Fatal("length prefixing failed: concatenation collision")
	}
}

func TestHasherDeterminism(t *testing.T) {
	mk := func() Digest {
		return NewHasher(DomainState).String("k").Uint64(42).Digest(OfBytes(DomainLeaf, []byte("v"))).Sum()
	}
	if mk() != mk() {
		t.Fatal("hasher is not deterministic")
	}
}

func TestXorAlgebra(t *testing.T) {
	// XOR must form an abelian group with Zero as identity and every
	// element self-inverse — the property Protocol II's registers rely
	// on.
	id := func(a Digest) bool { return a.Xor(Zero) == a }
	inv := func(a Digest) bool { return a.Xor(a) == Zero }
	comm := func(a, b Digest) bool { return a.Xor(b) == b.Xor(a) }
	assoc := func(a, b, c Digest) bool { return a.Xor(b).Xor(c) == a.Xor(b.Xor(c)) }
	for name, f := range map[string]any{"identity": id, "selfInverse": inv, "commutative": comm, "associative": assoc} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestShort(t *testing.T) {
	d := OfBytes(DomainBlob, []byte("hello"))
	if len(d.Short()) != 8 {
		t.Fatalf("Short() = %q, want 8 hex chars", d.Short())
	}
	if d.String()[:8] != d.Short() {
		t.Fatal("Short() is not a prefix of String()")
	}
}

func TestEmptyStable(t *testing.T) {
	if Empty() != Empty() {
		t.Fatal("Empty() must be a constant")
	}
	if Empty().IsZero() {
		t.Fatal("Empty() must not be the zero digest")
	}
}

// reference hashes the same fields the straightforward way: one write
// per field into a streaming SHA-256.
type reference struct{ h hash.Hash }

func (r reference) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	r.h.Write(b[:])
}

func (r reference) bytes(b []byte) { r.u64(uint64(len(b))); r.h.Write(b) }

// TestHasherMatchesReference pins the Hasher's byte stream — domain
// tag, 8-byte big-endian length prefixes, raw digests — across the
// buffered route, the streaming route and every switch between them,
// with field sizes straddling the buffer's capacity.
func TestHasherMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 63, hasherBuf - 18, hasherBuf - 17, hasherBuf - 9, hasherBuf - 8, hasherBuf, hasherBuf + 1, 3*hasherBuf + 17}
	blob := make([]byte, 4*hasherBuf)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	inner := OfBytes(DomainBlob, []byte("inner"))
	for _, a := range sizes {
		for _, b := range sizes {
			ref := reference{sha256.New()}
			ref.h.Write([]byte{DomainLeaf})
			ref.bytes(blob[:a])
			ref.u64(42)
			ref.bytes(blob[:b])
			ref.h.Write(inner[:])
			ref.bytes(blob[:a])
			var want Digest
			copy(want[:], ref.h.Sum(nil))

			got := NewHasher(DomainLeaf).Bytes(blob[:a]).Uint64(42).String(string(blob[:b])).Digest(inner).Bytes(blob[:a]).Sum()
			if got != want {
				t.Fatalf("sizes %d/%d: Bytes-String-Bytes = %s, reference %s", a, b, got.Short(), want.Short())
			}
			got = NewHasher(DomainLeaf).String(string(blob[:a])).Uint64(42).Bytes(blob[:b]).Digest(inner).String(string(blob[:a])).Sum()
			if got != want {
				t.Fatalf("sizes %d/%d: String-Bytes-String = %s, reference %s", a, b, got.Short(), want.Short())
			}
		}
	}
}

// TestHasherPinnedDigests holds two digests computed before the Hasher
// buffered its input: every stored root, register and footer depends on
// these bytes not moving.
func TestHasherPinnedDigests(t *testing.T) {
	small := NewHasher(DomainLeaf).Uint64(2).String("key").Bytes([]byte("val")).Digest(OfBytes(DomainBlob, []byte("blob"))).Sum()
	if got := small.String(); got != "4516aad0f03c7f9e2a284fa70903dcec26a6421f7803d8d117f00706d17750c8" {
		t.Errorf("buffered digest moved: %s", got)
	}
	large := OfBytes(DomainBlob, []byte(strings.Repeat("x", 10000)))
	if got := large.String(); got != "a30acd574069598c6717ccbcc0da16a4519cf8b924819488a23a15cc4f54874c" {
		t.Errorf("streamed digest moved: %s", got)
	}
}

var sink Digest

func BenchmarkHasherSmallFields(b *testing.B) {
	key, val := "key-000017", make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHasher(DomainLeaf).Uint64(8)
		for j := 0; j < 8; j++ {
			h.String(key).Bytes(val)
		}
		sink = h.Sum()
	}
}

func BenchmarkHasherLargeBytes(b *testing.B) {
	big := make([]byte, 64<<10)
	b.SetBytes(int64(len(big)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = OfBytes(DomainBlob, big)
	}
}
