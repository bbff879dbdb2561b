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

// shardKeys returns count keys of the form prefix-NNNNNN that an
// n-shard forest routes to shard sid, drawn at random below keyspace.
func shardKeys(rng *rand.Rand, count, keyspace, n, sid int) []string {
	keys := make([]string, 0, count)
	for len(keys) < count {
		if k := fmt.Sprintf("key-%06d", rng.Intn(keyspace)); RouteKey(k, n) == sid {
			keys = append(keys, k)
		}
	}
	return keys
}

// randomTxn is one WriteOp of m writes to shard sid: overwrites and
// inserts, and about a quarter deletes.
func randomTxn(rng *rand.Rand, m, keyspace, n, sid int) *WriteOp {
	op := &WriteOp{}
	for _, k := range shardKeys(rng, m, keyspace, n, sid) {
		if rng.Intn(4) == 0 {
			op.Deletes = append(op.Deletes, k)
		} else {
			op.Puts = append(op.Puts, KV{Key: k, Val: []byte(fmt.Sprintf("w%d", rng.Int31()))})
		}
	}
	return op
}

func seeded(t testing.TB, order, shards, n int) *DB {
	t.Helper()
	db := NewSharded(order, shards)
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
				whole, single := seeded(t, order, 1, n), seeded(t, order, 1, n)
				before := whole.Fork()
				oldRoot, oldImage := whole.Root(), dbImage(whole)
				txn := randomTxn(rng, m, n+n/4, 1, 0)
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
				if whole.Root() != single.Root() || whole.Len() != single.Len() {
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

func (o abortOp) ShardKey() string { return o.w.Puts[0].Key }

// TestFailedTransactionLeavesNothing: a multi-key Op that fails after
// its writes leaves the database — root, counter, every byte of its
// snapshot — and every fork taken earlier exactly as they were, on every
// road. The transaction before it is itself multi-key and, on the
// unverified roads, never hashed: were its nodes still owned after
// publication, the failing one would edit the published tree in place.
func TestFailedTransactionLeavesNothing(t *testing.T) {
	for _, shards := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(shards)))
		db := seeded(t, 4, shards, 800)
		sid := shards - 1
		type road struct {
			name  string
			apply func(op Op) error
		}
		roads := []road{
			{"Apply", func(op Op) error { _, _, err := db.Apply(op); return err }},
			{"Begin", func(op Op) error { _, err := db.Begin(op); return err }},
			{"ApplyPlain", func(op Op) error { _, err := db.ApplyPlain(op); return err }},
			{"Preload", func(op Op) error { return db.Preload(op) }},
		}
		if shards > 1 {
			roads = append(roads, road{"BeginCross", func(op Op) error {
				_, err := db.BeginCross(&CrossOp{Legs: []Op{randomTxn(rng, 20, 1000, shards, 0), op}})
				return err
			}})
		}
		for _, r := range roads {
			name, apply := fmt.Sprintf("%s, %d shards", r.name, shards), r.apply
			if err := apply(randomTxn(rng, 40, 1000, shards, sid)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fork := db.Fork()
			image, ctr := dbImage(db), db.Ctr()
			if err := apply(abortOp{randomTxn(rng, 40, 1000, shards, sid)}); !errors.Is(err, errAbort) {
				t.Fatalf("%s: failing transaction returned %v", name, err)
			}
			if db.Ctr() != ctr || !bytes.Equal(dbImage(db), image) {
				t.Fatalf("%s: a failed transaction changed the database", name)
			}
			if !bytes.Equal(dbImage(fork), image) || fork.Root() != db.Root() {
				t.Fatalf("%s: a failed transaction changed an earlier fork", name)
			}
			// And the next good one goes through, leaving the fork alone.
			if err := apply(randomTxn(rng, 40, 1000, shards, sid)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(dbImage(fork), image) || bytes.Equal(dbImage(db), image) {
				t.Fatalf("%s: fork and database did not part ways", name)
			}
		}
	}
}

// TestBeginOverlapsFinishOfMultiKeyTransactions is the pipelined
// server's overlap with transactions of many keys: eight goroutines
// each run Begin, then — outside the ordered section, while the others'
// Begins copy and edit nodes above the same tree — Finish, the head
// vector and the root. On a single tree and on a forest (cross-shard
// transactions included), every VO must verify, and per shard the
// verified roots must chain gap-free from the preloaded head to the
// final one: an edit in place of a node somebody else can reach would
// break a link, or trip the race detector first.
func TestBeginOverlapsFinishOfMultiKeyTransactions(t *testing.T) {
	const workers, rounds, keyspace = 8, 40, 3000
	for _, shards := range []int{1, 4} {
		db := seeded(t, 0, shards, keyspace)
		type link struct {
			pre      uint64
			old, new digest.Digest
		}
		start := make([]digest.Digest, shards)
		for sid, e := range db.heads {
			start[sid] = e.tree.RootDigest()
		}
		var mu sync.Mutex
		chains := make([][]link, shards)
		finish := func(op Op, st *Staged) error {
			ans, vo, err := st.Finish()
			if err != nil {
				return err
			}
			st.Heads()
			db.Root()
			old, nw, err := VerifyDerive(op, ans, vo)
			if err != nil {
				return err
			}
			mu.Lock()
			chains[st.Shard()] = append(chains[st.Shard()], link{st.PreCtr(), old, nw})
			mu.Unlock()
			return nil
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*shards + w)))
				for i := 0; i < rounds; i++ {
					m := []int{2, 8, 64}[rng.Intn(3)]
					if shards > 1 && i%4 == 3 {
						a := rng.Intn(shards)
						b := (a + 1 + rng.Intn(shards-1)) % shards
						cross := &CrossOp{Legs: []Op{randomTxn(rng, m, keyspace, shards, a), randomTxn(rng, m, keyspace, shards, b)}}
						cst, err := db.BeginCross(cross)
						if err != nil {
							t.Error(err)
							return
						}
						for j, leg := range cst.Legs() {
							if err := finish(cross.Legs[j], leg); err != nil {
								t.Error(err)
								return
							}
						}
						continue
					}
					op := randomTxn(rng, m, keyspace, shards, rng.Intn(shards))
					st, err := db.Begin(op)
					if err != nil {
						t.Error(err)
						return
					}
					if err := finish(op, st); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for sid, chain := range chains {
			sort.Slice(chain, func(i, j int) bool { return chain[i].pre < chain[j].pre })
			at := start[sid]
			for i, l := range chain {
				if l.pre != uint64(i) || l.old != at {
					t.Fatalf("%d shards, shard %d: link %d starts at counter %d, root %s; the chain is at %s", shards, sid, i, l.pre, l.old.Short(), at.Short())
				}
				at = l.new
			}
			if end := db.heads[sid].tree.RootDigest(); at != end {
				t.Fatalf("%d shards, shard %d: the verified chain ends at %s, the shard at %s", shards, sid, at.Short(), end.Short())
			}
		}
	}
}
