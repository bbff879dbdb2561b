package merkle

import (
	"fmt"
	"testing"

	"trustedcvs/internal/digest"
)

// The per-piece rows of the verified-op path, for
// `go test -run '^$' -bench . -benchmem ./internal/merkle`.

var benchSink digest.Digest

// BenchmarkNodeDigest hashes one full order-8 leaf and one full
// internal node from cold.
func BenchmarkNodeDigest(b *testing.B) {
	var es []entry
	for i := 0; i < DefaultOrder; i++ {
		es = append(es, entry{key: []byte(key(i)), val: []byte("a value of thirty-two bytes, yes")})
	}
	leaf := &node{leaf: true, enc: encode(true, es)}
	inner := &node{enc: encode(false, es)}
	for i := 0; i <= DefaultOrder; i++ {
		d := digest.OfBytes(digest.DomainLeaf, []byte{byte(i)})
		inner.kids = append(inner.kids, kid{d: &d})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leaf.memo.Store(memoUnset)
		inner.memo.Store(memoUnset)
		benchSink = leaf.digest().Xor(inner.digest())
	}
}

// benchRecordings returns single-key update recordings over a warm
// 100k-record tree: the kv-write shape.
func benchRecordings(b *testing.B) []*Recording {
	tr := New(0)
	for i := 0; i < 100_000; i++ {
		tr = tr.Put(key(i), val(i))
	}
	tr.RootDigest()
	recs := make([]*Recording, 512)
	for i := range recs {
		recs[i] = tr.Record()
		if err := recs[i].Put(key((i*7919)%100_000), []byte(fmt.Sprintf("new-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	return recs
}

// BenchmarkVOBuild is the server's VO: a live VO cut from a recorded
// update written into a reused frame buffer, which allocates nothing;
// and a VO cut and materialized into a slice of its own, as every other
// reader takes it: two allocations, the VO and its bytes.
func BenchmarkVOBuild(b *testing.B) {
	recs := benchRecordings(b)
	b.Run("write", func(b *testing.B) {
		vos := make([]*VO, len(recs))
		for i, rec := range recs {
			vos[i] = rec.VO()
		}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = vos[i%len(vos)].AppendBinary(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchVO = recs[i%len(recs)].VO()
			if _, err := benchVO.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var benchVO *VO

// BenchmarkVOTree is the verifier's half: materialize a received VO and
// hash its root.
func BenchmarkVOTree(b *testing.B) {
	recs := benchRecordings(b)
	vos := make([]*VO, len(recs))
	for i, rec := range recs {
		var err error
		if vos[i], err = ViewVO(mustMarshal(b, rec.VO())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := vos[i%len(vos)].Tree()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = t.RootDigest()
	}
}
