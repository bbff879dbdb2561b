package proto2

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

// TestQuickByzantineResponseMutations is the soundness fuzzer: an
// otherwise honest run has ONE response field mutated to a random
// different value (counter, last-user tag, answer bytes, or a digest
// inside the VO). Every such lie must be caught — either immediately
// by the per-operation checks or at the closing synchronization. The
// mutation classes take turns, and each must have bitten often enough
// that a class which silently stopped mutating anything fails the test
// instead of passing it vacuously.
func TestQuickByzantineResponseMutations(t *testing.T) {
	const trials, classes, minBites = 150, 4, 15
	var bites [classes]int
	trial := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		h := newHarness(t, n, 1_000_000) // manual sync at the end
		ops := 5 + rng.Intn(25)
		victimOp := 1 + rng.Intn(ops)
		mutation := trial % classes
		trial++

		var detected error
		for i := 1; i <= ops && detected == nil; i++ {
			u := rng.Intn(n)
			// 64 keys: enough that longer runs split the root leaf and
			// their VOs carry pruned digests, not only keys.
			op := put(fmt.Sprintf("k%d", rng.Intn(64)), fmt.Sprintf("v%d", i))
			resp, err := h.server.HandleOp(h.users[u].Request(op))
			if err != nil {
				t.Log(err)
				return false
			}
			if i == victimOp {
				if !mutate(t, rng, resp, mutation) {
					// The lie had nothing to bite on (an empty-tree VO
					// has neither a digest nor a key to corrupt):
					// vacuous trial.
					return true
				}
				bites[mutation]++
			}
			if _, err := h.users[u].HandleResponse(op, resp); err != nil {
				detected = err
			}
		}
		if detected == nil {
			detected = h.sync()
		}
		if _, ok := core.AsDetection(detected); !ok {
			t.Logf("mutation %d at op %d/%d undetected", mutation, victimOp, ops)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: trials}); err != nil {
		t.Fatal(err)
	}
	for class, n := range bites {
		if n < minBites {
			t.Errorf("mutation class %d bit in %d of %d trials, want at least %d: the fuzzer is going vacuous", class, n, trials, minBites)
		}
	}
}

// mutate applies one lie to the response, reporting whether anything
// actually changed.
func mutate(t *testing.T, rng *rand.Rand, resp *core.OpResponseII, kind int) bool {
	switch kind {
	case 0: // counter lie (any different value)
		resp.Ctr += uint64(1 + rng.Intn(10))
	case 1: // attribution lie: blame a different user
		resp.Last += sig.UserID(1 + rng.Intn(5))
	case 2: // answer lie: substitute a well-formed different answer
		forged, err := vdb.EncodeAnswer(vdb.ReadAnswer{Results: []vdb.ReadResult{{
			Key: "forged", Found: true, Val: []byte{byte(rng.Int())},
		}}})
		if err != nil {
			panic(err)
		}
		resp.Answer = forged
	case 3: // VO lie: corrupt one pruned digest inside the proof
		honest, err := resp.VO.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		forged := bytes.Clone(honest)
		if !flipOneDigest(rng, forged) {
			return false
		}
		if resp.VO, err = merkle.ViewVO(forged); err != nil {
			t.Fatalf("the forged VO is no longer grammatical: %v", err)
		}
	}
	return true
}

// flipOneDigest flips a byte of some pruned digest in a flat VO
// encoding (merkle/vobinary.go; there is always one on a non-trivial
// tree) or, failing that, a byte of the first key. It walks the
// encoding the honest server produced, so it checks no bounds.
func flipOneDigest(rng *rand.Rand, enc []byte) bool {
	off, firstKey := 0, -1
	uvarint := func() int {
		v, n := binary.Uvarint(enc[off:])
		off += n
		return int(v)
	}
	lensBytes := func(count int) {
		total := 0
		for i := 0; i < count; i++ {
			total += uvarint()
		}
		if firstKey < 0 && total > 0 {
			firstKey = off
		}
		off += total
	}
	var digests []int
	var node func()
	node = func() {
		kind := enc[off]
		off++
		switch kind {
		case 1: // pruned
			digests = append(digests, off)
			off += digest.Size
		case 2: // leaf: keys, values
			count := uvarint()
			lensBytes(count)
			lensBytes(count)
		case 3: // internal: keys, one more child than keys
			count := uvarint()
			lensBytes(count)
			for i := 0; i <= count; i++ {
				node()
			}
		}
	}
	uvarint() // order
	node()
	switch {
	case len(digests) > 0:
		enc[digests[rng.Intn(len(digests))]+rng.Intn(digest.Size)] ^= 0xFF
	case firstKey >= 0:
		enc[firstKey] ^= 0x01
	default:
		return false
	}
	return true
}

// TestByzantineCtrLieCaughtSameUser: a counter jump is caught no later
// than the same user's next operation (monotonicity is per-user; the
// jump itself may pass, but the chain breaks at sync regardless).
func TestByzantineCtrLieCaughtAtSync(t *testing.T) {
	h := newHarness(t, 2, 1_000_000)
	op := put("a", "1")
	resp, err := h.server.HandleOp(h.users[0].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	resp.Ctr += 7
	if _, err := h.users[0].HandleResponse(op, resp); err != nil {
		t.Fatalf("a pure forward ctr jump passes per-op checks: %v", err)
	}
	err = h.sync()
	if de, ok := core.AsDetection(err); !ok || de.Class != core.SyncMismatch {
		t.Fatalf("ctr lie must break the chain at sync: %v", err)
	}
}
