package witness

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/vdb"
)

// TestWitnessRefusesLyingSnapshotBody: the checkpoint a witness is
// shipped comes from the very primary it exists to distrust, and the
// sender computes the envelope's checksum — so the checksum proves
// nothing and the body decoder is the boundary. Every lie below sits in
// a valid envelope; each must be refused, with allocation bounded by
// the input's size rather than by the counts it claims.
func TestWitnessRefusesLyingSnapshotBody(t *testing.T) {
	const format = 0x8C // server's Protocol II snapshot format byte
	huge := binary.AppendUvarint(nil, 1<<40)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	tree := func(size uint64, vo ...byte) []byte {
		return binenc.AppendBytes(binary.AppendUvarint(nil, size), vo)
	}
	var (
		empty    = tree(0, 4, 0)            // order 4, absent root
		single   = cat([]byte{0, 0}, empty) // ctr 0, single-tree layout
		store    = []byte{0}                // no blobs
		lastUser = binary.AppendUvarint(nil, 0xFFFFFFFF)
		tail     = cat(store, lastUser, []byte{0, 0}) // no metas, no sessions
		leafAB   = []byte{2, 2, 1, 1, 'a', 'b', 0, 0} // keys "a" and "b", empty values
	)
	deep := []byte{4}
	for i := 0; i < 80; i++ {
		deep = append(deep, 3, 0) // an internal node with no keys and one child
	}
	deep = append(deep, 2, 0)
	pruned := cat([]byte{4, 3, 1, 1, 'c'}, leafAB, []byte{1}, bytes.Repeat([]byte{7}, digest.Size))

	// Two blobs in digest order, and the store section spelling a list
	// of blobs.
	lo, hi := bytes.Repeat([]byte("l"), 4<<10), bytes.Repeat([]byte("h"), 4<<10)
	if a, b := rcs.HashContent(lo), rcs.HashContent(hi); bytes.Compare(a[:], b[:]) > 0 {
		lo, hi = hi, lo
	}
	blobs := func(list ...[]byte) []byte {
		b := binary.AppendUvarint(nil, uint64(len(list)))
		for _, blob := range list {
			b = binenc.AppendBytes(b, blob)
		}
		return b
	}

	_, emptyRoot := vdb.New(4).Head()
	put := func(payload []byte) *SnapshotPut {
		var env bytes.Buffer
		if err := durable.WriteEnvelope(&env, "TCVSSNAP1\n", digest.DomainSnapshot, payload); err != nil {
			t.Fatal(err)
		}
		return &SnapshotPut{Server: "primary", Ctr: 0, Root: emptyRoot, Data: env.Bytes()}
	}

	// The hand-built grammar is the real one: the honest spelling of an
	// empty database is accepted.
	n := NewNode("w1")
	if _, err := n.Handler()(put(cat([]byte{format}, single, blobs(lo, hi), lastUser, []byte{0, 0}))); err != nil {
		t.Fatalf("test bug: the hand-built honest snapshot is refused: %v", err)
	}

	lies := map[string]struct {
		body []byte
		want string // what the refusal must name
	}{
		"shard count":         {cat([]byte{0}, huge, empty, tail), server.ErrSnapshotFormat.Error()},
		"record count":        {cat([]byte{0, 0}, huge, []byte{2, 4, 0}, tail), "count 1099511627776 exceeds"},
		"tree length":         {cat([]byte{0, 0, 0}, huge, []byte{4, 0}, tail), "count 1099511627776 exceeds"},
		"tree-node key count": {cat([]byte{0, 0}, tree(0, append([]byte{4, 2}, huge...)...), tail), "count 1099511627776 exceeds"},
		"tree-node kid count": {cat([]byte{0, 0}, tree(0, append([]byte{4, 3}, huge...)...), tail), "count 1099511627776 exceeds"},
		"tree too deep":       {cat([]byte{0, 0}, tree(0, deep...), tail), "deeper than 64 levels"},
		"pruned node in tree": {cat([]byte{0, 0}, tree(2, pruned...), tail), "pruned node"},
		"sharded layout":      {cat([]byte{5, 2, 1}, empty, []byte{1}, empty, store, lastUser, []byte{2}, make([]byte, 2*(1+digest.Size)), []byte{0}), server.ErrSnapshotFormat.Error()},
		"blob count":          {cat(single, huge, lastUser, []byte{0, 0}), "count 1099511627776 exceeds"},
		"blob length":         {cat(single, []byte{1}, huge, lastUser, []byte{0, 0}), "count 1099511627776 exceeds"},
		"blobs out of order":  {cat(single, blobs(hi, lo), lastUser, []byte{0, 0}), "digest order"},
		"duplicate blob":      {cat(single, blobs(lo, lo), lastUser, []byte{0, 0}), "digest order"},
		"meta count":          {cat(single, store, lastUser, huge, []byte{0}), server.ErrSnapshotFormat.Error()},
		"session count":       {cat(single, store, lastUser, []byte{0}, huge), "count 1099511627776 exceeds"},
		"outcome count":       {cat(single, store, lastUser, []byte{0, 1, 9, 1, 0}, huge), "count 1099511627776 exceeds"},
		"nested reply tag":    {cat(single, store, lastUser, []byte{0, 1, 9, 1, 0, 1, 1, 0, 0, 200}), "unknown message tag 200"},
		"trailing byte":       {cat(single, tail, []byte{0}), "trailing"},
		"older format":        {nil, server.ErrSnapshotFormat.Error()},
	}
	for name, lie := range lies {
		payload := append([]byte{format}, lie.body...)
		if name == "older format" {
			payload = cat([]byte{0x1f}, single, tail) // a gob stream opens below 0x80
		}
		req := put(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := n.Handler()(req)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), lie.want) {
			t.Errorf("%s: refusal = %v, want one naming %q", name, err, lie.want)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(req.Data)); got > limit {
			t.Errorf("%s: the refusal allocated %d bytes for %d of input (limit %d)", name, got, len(req.Data), limit)
		}
	}
	if data, ctr, _, ok := n.StoredSnapshot("primary"); !ok || ctr != 0 || len(data) == 0 {
		t.Fatal("the honest checkpoint was displaced by a refused one")
	}
}
