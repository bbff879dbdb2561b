package vdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
)

// verdict is what a verification of one response came to.
type verdict struct {
	oldRoot, newRoot digest.Digest
	err              string
}

func (v verdict) String() string {
	return fmt.Sprintf("old %s new %s err %q", v.oldRoot.Short(), v.newRoot.Short(), v.err)
}

func judge(oldRoot, newRoot digest.Digest, err error) verdict {
	if err != nil {
		return verdict{err: err.Error()}
	}
	return verdict{oldRoot: oldRoot, newRoot: newRoot}
}

// randomVerifiedOp is a read of one to three keys, a write of one key or
// a multi-key transaction of puts and deletes, over keys of the form
// key-NNNNNN below keyspace.
func randomVerifiedOp(rng *rand.Rand, keyspace int) Op {
	key := func() string { return fmt.Sprintf("key-%06d", rng.Intn(keyspace)) }
	switch rng.Intn(3) {
	case 0:
		op := &ReadOp{}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			op.Keys = append(op.Keys, key())
		}
		return op
	case 1:
		return &WriteOp{Puts: []KV{{Key: key(), Val: []byte(fmt.Sprintf("v%d", rng.Int31()))}}}
	}
	return randomTxn(rng, 2+rng.Intn(6), keyspace)
}

// TestVerifierReuseMatchesFresh: a Verifier that verifies a seeded
// sequence of responses in its reused memory comes to exactly the
// verdicts, old roots and new roots VerifyDerive comes to in fresh
// memory, at orders 3, 4 and 8. Honest reads, writes and multi-key
// transactions are interleaved with responses that must be refused — a
// truncated VO, a VO with one bit flipped, a VO whose nodes overflow the
// order it claims (refused halfway through materializing it), a VO of
// the same pre-state that does not cover the operation's keys, and a
// wrong answer — and the honest response after a refused one verifies
// exactly as it would have without it.
func TestVerifierReuseMatchesFresh(t *testing.T) {
	const keyspace = 400
	for _, order := range []int{3, 4, 8} {
		t.Run(fmt.Sprintf("order-%d", order), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(order)))
			db := seeded(t, order, keyspace/2)
			var reused Verifier
			refused := 0
			check := func(what string, op Op, ans []byte, vo *merkle.VO) verdict {
				t.Helper()
				got := judge(reused.VerifyDerive(op, ans, vo))
				want := judge(VerifyDerive(op, ans, vo))
				if got != want {
					t.Fatalf("%s %v: reused memory %v, fresh memory %v", what, op, got, want)
				}
				return got
			}
			for i := 0; i < 400; i++ {
				op := randomVerifiedOp(rng, keyspace)
				if rng.Intn(2) == 0 {
					// A lie about op, cut on a fork of the same state.
					ans, vo, err := db.Fork().Apply(op)
					if err != nil {
						t.Fatal(err)
					}
					b := bytes.Clone(mustBytes(t, vo))
					var lie *merkle.VO
					what := rng.Intn(5)
					switch what {
					case 0: // truncated
						lie, err = merkle.ViewVO(b[:rng.Intn(len(b))])
						if err == nil {
							check("truncated VO", op, ans, lie)
						}
						refused++
						continue
					case 1: // a flipped bit: in a digest, a key, a value or the grammar
						b[rng.Intn(len(b))] ^= 1 << rng.Intn(8)
					case 2: // nodes over the claimed order
						b[0] = byte(merkle.MinOrder)
						if order == merkle.MinOrder {
							b[0] = 2 // below every order
						}
					case 3: // a VO that does not cover op's keys
						other := &ReadOp{Keys: []string{fmt.Sprintf("key-%06d", rng.Intn(keyspace))}}
						if _, vo, err = db.Fork().Apply(other); err != nil {
							t.Fatal(err)
						}
						b = bytes.Clone(mustBytes(t, vo))
					case 4: // a wrong answer
						ans = append(bytes.Clone(ans), 0)
					}
					if lie, err = merkle.ViewVO(b); err != nil {
						if what != 1 {
							t.Fatalf("lie %d: %v", what, err)
						}
						refused++ // the flip broke the grammar
						continue
					}
					if v := check(fmt.Sprintf("lie %d", what), op, ans, lie); v.err != "" || v.oldRoot != db.Root() {
						refused++
					}
				}
				old := db.Root()
				ans, vo, err := db.Apply(op)
				if err != nil {
					t.Fatal(err)
				}
				if v := check("honest response", op, ans, vo); v != (verdict{oldRoot: old, newRoot: db.Root()}) {
					t.Fatalf("honest %v: %v, want old %s new %s", op, v, old.Short(), db.Root().Short())
				}
			}
			if refused < 100 {
				t.Fatalf("only %d responses refused", refused)
			}
		})
	}
}

func mustBytes(t *testing.T, vo *merkle.VO) []byte {
	t.Helper()
	b, err := vo.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVerifierPerGoroutine: verifiers in concurrent goroutines, one
// each, share the VOs they verify and nothing else. Run under -race.
func TestVerifierPerGoroutine(t *testing.T) {
	db := seeded(t, 4, 200)
	rng := rand.New(rand.NewSource(1))
	type response struct {
		op       Op
		ans      []byte
		vo       *merkle.VO
		old, new digest.Digest
	}
	rs := make([]response, 64)
	for i := range rs {
		r := &rs[i]
		r.op, r.old = randomVerifiedOp(rng, 400), db.Root()
		var err error
		if r.ans, r.vo, err = db.Apply(r.op); err != nil {
			t.Fatal(err)
		}
		r.new = db.Root()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var v Verifier
			for i := range rs {
				r := &rs[(i+g*16)%len(rs)]
				old, new, err := v.VerifyDerive(r.op, r.ans, r.vo)
				if err != nil || old != r.old || new != r.new {
					t.Errorf("goroutine %d, response %d: %s %s %v", g, i, old.Short(), new.Short(), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestVerifierPinsNoFrame: once VerifyDerive returns, the Verifier holds
// nothing of the bytes the VO arrived in — its nodes were windows onto
// them — so the response frame can be collected while the protocol user
// that owns the Verifier lives on.
func TestVerifierPinsNoFrame(t *testing.T) {
	db := seeded(t, 4, 200)
	var v Verifier
	collected := make(chan struct{})
	func() {
		op := &WriteOp{Puts: []KV{{Key: "key-000007", Val: []byte("rewritten")}}}
		old := db.Root()
		ans, vo, err := db.Apply(op)
		if err != nil {
			t.Fatal(err)
		}
		b := mustBytes(t, vo)
		frame := new([1 << 14]byte)
		if len(b) > len(frame) {
			t.Fatalf("VO of %d bytes", len(b))
		}
		runtime.SetFinalizer(frame, func(*[1 << 14]byte) { close(collected) })
		received, err := merkle.ViewVO(frame[:copy(frame[:], b)])
		if err != nil {
			t.Fatal(err)
		}
		if gotOld, gotNew, err := v.VerifyDerive(op, ans, received); err != nil || gotOld != old || gotNew != db.Root() {
			t.Fatalf("honest write: %s %s %v", gotOld.Short(), gotNew.Short(), err)
		}
	}()
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the frame a verified VO arrived in is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(&v)
}
