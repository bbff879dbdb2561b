package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"trustedcvs/internal/merkle"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// voSteps returns a seeded operation sequence for a tree of the given
// order, starting from the empty tree: multi-key writes that split
// nodes, deletes that merge them, reads and ranges, over a key space
// small enough that every path is revisited.
func voSteps(order int) []vdb.Op {
	rng := rand.New(rand.NewSource(int64(order)))
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(60)) }
	ops := []vdb.Op{&vdb.ReadOp{Keys: []string{"k000"}}}
	for i := 0; i < 120; i++ {
		switch r := rng.Intn(10); {
		case r < 5 || i < 20:
			w := &vdb.WriteOp{}
			for j := rng.Intn(4); j >= 0; j-- {
				w.Puts = append(w.Puts, vdb.KV{Key: key(), Val: []byte(fmt.Sprintf("v%d-%d", i, j))})
			}
			if rng.Intn(3) == 0 {
				w.Deletes = append(w.Deletes, key())
			}
			ops = append(ops, w)
		case r < 7:
			w := &vdb.WriteOp{}
			for j := rng.Intn(5); j >= 0; j-- {
				w.Deletes = append(w.Deletes, key())
			}
			ops = append(ops, w)
		case r < 9:
			ops = append(ops, &vdb.ReadOp{Keys: []string{key(), key()}})
		default:
			lo := key()
			ops = append(ops, &vdb.RangeOp{Lo: lo, Hi: lo + "~", Limit: 3})
		}
	}
	return ops
}

// voFrames returns the frames one VO travels in: Protocol I, II and III
// responses and the VO on its own.
func voFrames(t *testing.T, ans []byte, vo *merkle.VO, ctr uint64) [][]byte {
	t.Helper()
	msgs := []any{
		&OpResponseI{Answer: ans, VO: vo, Ctr: ctr, Signer: 2, Sig: sig.Signature("state-signature")},
		&OpResponseII{Answer: ans, VO: vo, Ctr: ctr, Last: 3},
		&OpResponseII{Answer: ans, VO: vo, Ctr: ctr, Last: 3, Epoch: ctr / 8},
		vo,
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		var buf bytes.Buffer
		if err := wire.NewEncoder(&buf).Encode(m); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	return frames
}

// TestVOFramesWrittenOnce: a server's VO writes itself into its frame
// straight from the database tree. That frame must be byte for byte the
// one written after a reader materialized the VO, and the one written
// when every VO was a byte slice before it reached any frame: the
// hashes below of every frame of each order's sequence, and the frames
// in hex, were taken from that encoder.
func TestVOFramesWrittenOnce(t *testing.T) {
	want := map[int]string{
		3: "86def71a47466e8a21631c8d348b49461f992ea0d662a7f966a390bf87a2bf08",
		4: "fcd55adfc42339d7695f582a3e5c6c4076ac022e0043445c4b9e4c64e4824fc4",
		8: "a38610ba1ae577855f768cc90dc7e49d9a89478a8ec31b7d397e59fb3e899e6e",
	}
	wantHex := map[string]string{
		// The empty tree's VO: order 3, an absent root.
		"order 3, step 0, frame 3": "40000003200300",
		"order 3, step 0, frame 1": "4000001513090101046b303030000002030000030000000000",
		// One leaf of one record.
		"order 3, step 1, frame 0": "4000001a120302040002030001020f73746174652d7369676e6174757265",
		// Three levels: expanded nodes and pruned siblings' digests.
		"order 3, step 21, frame 3": "4000013c200303030404046b3032326b3033306b303439030204046b3030376b303134020204046b3030306b30303105047631342d3176342d32020204046b3030386b30303905057631392d307631382d3101b0785b98b2791b63e7435258bfea3a813cda5f9c342df6259fea68256c78edf90110d6b9caaff0cbba976e222f7604524b00906b0253a98c8f45e8bf02ae5ef22c03030404046b3033336b3034316b303434011b1bc20e7e8580f35901b38de7b7305402ddf5b6c6b398e1c5fe92f73b802d8b017d085500305ba1b31c86b6f21fc86eecea8f49be2ca319a9849bf8f674ed66d10131eb826c22474267d685bbf2e7dd7fd26ac4f8113492404020fd0db4e7e8638d020204046b3034346b303435040576382d317631302d3001f53f809e7826e999cd302c52e36aabde5eb60b0441c764a1045625941ab2f52c",
	}
	pinned := 0
	for _, order := range []int{3, 4, 8} {
		db := vdb.New(order)
		sum := sha256.New()
		for i, op := range voSteps(order) {
			st, err := db.Begin(op)
			if err != nil {
				t.Fatalf("order %d, step %d: %v", order, i, err)
			}
			ans, vo, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			live := voFrames(t, ans, vo, st.PreCtr())
			if _, err := vo.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
			for j, f := range voFrames(t, ans, vo, st.PreCtr()) {
				if !bytes.Equal(f, live[j]) {
					t.Fatalf("order %d, step %d, frame %d: written live\n%x\nmaterialized\n%x", order, i, j, live[j], f)
				}
				sum.Write(f)
				name := fmt.Sprintf("order %d, step %d, frame %d", order, i, j)
				if w, ok := wantHex[name]; ok {
					pinned++
					if hex.EncodeToString(f) != w {
						t.Errorf("%s:\n got %x\nwant %s", name, f, w)
					}
				}
			}
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != want[order] {
			t.Errorf("order %d: frames hash to %s, want %s", order, got, want[order])
		}
	}
	if pinned != len(wantHex) {
		t.Errorf("%d of the %d frames pinned in hex were written", pinned, len(wantHex))
	}
}
