package vdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"trustedcvs/internal/digest"
)

func dbImage(db *DB) []byte { return AppendSnapshot(nil, db.Snapshot()) }

// randomTxn is one WriteOp of m writes to keys of the form
// key-NNNNNN drawn at random below keyspace: overwrites and inserts,
// and about a quarter deletes.
func randomTxn(rng *rand.Rand, m, keyspace int) *WriteOp {
	op := &WriteOp{}
	for i := 0; i < m; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(keyspace))
		if rng.Intn(4) == 0 {
			op.Deletes = append(op.Deletes, k)
		} else {
			op.Puts = append(op.Puts, KV{Key: k, Val: []byte(fmt.Sprintf("w%d", rng.Int31()))})
		}
	}
	return op
}

func seeded(t testing.TB, order, n int) *DB {
	t.Helper()
	db := New(order)
	load := &WriteOp{}
	for i := 0; i < n; i++ {
		load.Puts = append(load.Puts, KV{Key: fmt.Sprintf("key-%06d", i), Val: []byte("seed")})
	}
	if err := db.Preload(load); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTransactionMatchesSingleKeyOps: one m-key WriteOp and the m
// single-key WriteOps it is made of take the database to the same root;
// the transaction's VO verifies from the old root to that root; and a
// fork taken before it still hashes to the old root with every old key
// readable. Seeded, over small and default orders, on every road an Op
// takes through a Tx.
func TestTransactionMatchesSingleKeyOps(t *testing.T) {
	roads := map[string]func(db *DB, op Op) error{
		"Apply": func(db *DB, op Op) error {
			old := db.Root()
			ans, vo, err := db.Apply(op)
			if err != nil {
				return err
			}
			derivedOld, derivedNew, err := VerifyDerive(op, ans, vo)
			if err != nil {
				return err
			}
			if derivedOld != old || derivedNew != db.Root() {
				return errors.New("VO derives the wrong roots")
			}
			return nil
		},
		"Begin": func(db *DB, op Op) error {
			old := db.Root()
			st, err := db.Begin(op)
			if err != nil {
				return err
			}
			ans, vo, err := st.Finish()
			if err != nil {
				return err
			}
			if _, err := Verify(op, ans, vo, old); err != nil {
				return err
			}
			return nil
		},
		"ApplyPlain": func(db *DB, op Op) error { _, err := db.ApplyPlain(op); return err },
		"Preload":    func(db *DB, op Op) error { return db.Preload(op) },
	}
	for road, apply := range roads {
		for _, order := range []int{3, 8} {
			for _, m := range []int{1, 2, 8, 64, 1000} {
				name := fmt.Sprintf("%s, order %d, %d keys", road, order, m)
				rng := rand.New(rand.NewSource(int64(order*10_000 + m)))
				const n = 500
				whole, single := seeded(t, order, n), seeded(t, order, n)
				before := whole.Fork()
				oldRoot, oldImage := whole.Root(), dbImage(whole)
				txn := randomTxn(rng, m, n+n/4)
				if err := apply(whole, txn); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, kv := range txn.Puts {
					if _, err := single.ApplyPlain(&WriteOp{Puts: []KV{kv}}); err != nil {
						t.Fatal(err)
					}
				}
				for _, k := range txn.Deletes {
					if _, err := single.ApplyPlain(&WriteOp{Deletes: []string{k}}); err != nil {
						t.Fatal(err)
					}
				}
				if whole.Root() != single.Root() {
					t.Fatalf("%s: transaction root %s, single-key root %s", name, whole.Root().Short(), single.Root().Short())
				}
				if before.Root() != oldRoot || !bytes.Equal(dbImage(before), oldImage) {
					t.Fatalf("%s: the transaction changed a fork taken before it", name)
				}
				ans, _, err := before.Apply(&RangeOp{})
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := DecodeAnswer(ans); len(got.(RangeAnswer).Results) != n {
					t.Fatalf("%s: the earlier fork reads %d of its %d keys", name, len(got.(RangeAnswer).Results), n)
				}
			}
		}
	}
}

// abortOp writes, then fails: a transaction that dies after its n-th
// put.
type abortOp struct{ w *WriteOp }

var errAbort = errors.New("abort")

func (o abortOp) Apply(tx *Tx) (any, error) {
	if _, err := o.w.Apply(tx); err != nil {
		return nil, err
	}
	return nil, errAbort
}

// TestFailedTransactionLeavesNothing: a multi-key Op that fails after
// its writes leaves the database — root, counter, every byte of its
// snapshot — and every fork taken earlier exactly as they were, on every
// road. The transaction before it is itself multi-key and, on the
// unverified roads, never hashed: were its nodes still owned after
// publication, the failing one would edit the published tree in place.
func TestFailedTransactionLeavesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := seeded(t, 4, 800)
	for name, apply := range map[string]func(op Op) error{
		"Apply":      func(op Op) error { _, _, err := db.Apply(op); return err },
		"Begin":      func(op Op) error { _, err := db.Begin(op); return err },
		"ApplyPlain": func(op Op) error { _, err := db.ApplyPlain(op); return err },
		"Preload":    func(op Op) error { return db.Preload(op) },
	} {
		if err := apply(randomTxn(rng, 40, 1000)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fork := db.Fork()
		image, ctr := dbImage(db), db.Ctr()
		if err := apply(abortOp{randomTxn(rng, 40, 1000)}); !errors.Is(err, errAbort) {
			t.Fatalf("%s: failing transaction returned %v", name, err)
		}
		if db.Ctr() != ctr || !bytes.Equal(dbImage(db), image) {
			t.Fatalf("%s: a failed transaction changed the database", name)
		}
		if !bytes.Equal(dbImage(fork), image) || fork.Root() != db.Root() {
			t.Fatalf("%s: a failed transaction changed an earlier fork", name)
		}
		// And the next good one goes through, leaving the fork alone.
		if err := apply(randomTxn(rng, 40, 1000)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(dbImage(fork), image) || bytes.Equal(dbImage(db), image) {
			t.Fatalf("%s: fork and database did not part ways", name)
		}
	}
}

// TestBeginOverlapsFinishOfMultiKeyTransactions is the pipelined
// server's overlap with transactions of many keys: eight goroutines
// each run Begin, then — outside the ordered section, while the others'
// Begins copy and edit nodes above the same tree — Finish and the root.
// Every VO must verify, and the verified roots must chain gap-free from
// the preloaded root to the final one: an edit in place of a node
// somebody else can reach would break a link, or trip the race detector
// first.
func TestBeginOverlapsFinishOfMultiKeyTransactions(t *testing.T) {
	const workers, rounds, keyspace = 8, 40, 3000
	db := seeded(t, 0, keyspace)
	type link struct {
		pre      uint64
		old, new digest.Digest
	}
	start := db.Root()
	var mu sync.Mutex
	var chain []link
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				op := randomTxn(rng, []int{2, 8, 64}[rng.Intn(3)], keyspace)
				st, err := db.Begin(op)
				if err != nil {
					t.Error(err)
					return
				}
				ans, vo, err := st.Finish()
				if err != nil {
					t.Error(err)
					return
				}
				db.Root()
				old, nw, err := VerifyDerive(op, ans, vo)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				chain = append(chain, link{st.PreCtr(), old, nw})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].pre < chain[j].pre })
	at := start
	for i, l := range chain {
		if l.pre != uint64(i) || l.old != at {
			t.Fatalf("link %d starts at counter %d, root %s; the chain is at %s", i, l.pre, l.old.Short(), at.Short())
		}
		at = l.new
	}
	if end := db.Root(); at != end {
		t.Fatalf("the verified chain ends at %s, the database at %s", at.Short(), end.Short())
	}
}
