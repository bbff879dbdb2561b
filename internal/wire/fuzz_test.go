package wire_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"trustedcvs/internal/core"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// TestQuickStreamingDecodeNeverPanicsOnGarbage: the server is untrusted
// and owns the wire — arbitrary bytes must produce errors, never panics
// or giant allocations.
func TestQuickStreamingDecodeNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, rng.Intn(512))
		rng.Read(b)
		d := wire.NewDecoder(bytes.NewReader(b))
		for i := 0; i < 4; i++ {
			if _, err := d.Decode(); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBitflippedFramesNeverPanic: take real protocol frames, flip
// random bits, and confirm Decode either errors or returns a decodable
// value — never panics.
func TestQuickBitflippedFramesNeverPanic(t *testing.T) {
	db := vdb.New(0)
	ans, vo, err := db.Apply(&vdb.WriteOp{Puts: []vdb.KV{{Key: "k", Val: []byte("v")}}})
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := wire.NewEncoder(&frame).Encode(&core.OpResponseII{Answer: ans, VO: vo, Ctr: 0, Last: 7}); err != nil {
		t.Fatal(err)
	}
	orig := frame.Bytes()

	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		b := append([]byte(nil), orig...)
		for i := 0; i < 1+rng.Intn(4); i++ {
			b[rng.Intn(len(b))] ^= 1 << rng.Intn(8)
		}
		msg, err := decodeFrame(b)
		if err != nil {
			return true
		}
		// If it decoded, downstream handling must also be total: a
		// response with a hostile VO goes through VO materialization.
		if resp, isResp := msg.(*core.OpResponseII); isResp && resp.VO != nil {
			_, _ = resp.VO.Tree()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHostileVOReplayNeverPanics: random structural mutations of
// a real VO must be rejected by Tree()/Replay with errors, not panics,
// and must never verify against the honest root unless unchanged.
func TestQuickHostileVOReplayNeverPanics(t *testing.T) {
	db := vdb.New(0)
	for i := 0; i < 200; i++ {
		if err := db.Preload(&vdb.WriteOp{Puts: []vdb.KV{{Key: key(i), Val: []byte("v")}}}); err != nil {
			t.Fatal(err)
		}
	}
	trusted := db.Root()
	op := &vdb.ReadOp{Keys: []string{key(50)}}
	ans, vo, err := db.Apply(op)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize once; mutations happen on fresh decodes.
	var frame bytes.Buffer
	if err := wire.NewEncoder(&frame).Encode(&core.OpResponseII{Answer: ans, VO: vo}); err != nil {
		t.Fatal(err)
	}
	orig := frame.Bytes()

	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		b := append([]byte(nil), orig...)
		mutated := rng.Intn(4) > 0
		if mutated {
			for i := 0; i < 1+rng.Intn(6); i++ {
				b[4+rng.Intn(len(b)-4)] ^= byte(1 + rng.Intn(255))
			}
		}
		msg, err := decodeFrame(b)
		if err != nil {
			return true
		}
		resp, isResp := msg.(*core.OpResponseII)
		if !isResp || resp.VO == nil {
			return true
		}
		_, verr := vdb.Verify(op, resp.Answer, resp.VO, trusted)
		if !mutated && verr != nil {
			t.Logf("unmutated frame failed verification: %v", verr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func key(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i%10)) + "-key"
}
