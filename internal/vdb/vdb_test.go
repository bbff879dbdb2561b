package vdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
)

// applyAndVerify runs op on the server db and then verifies it like a
// client would, returning the client-computed new root.
func applyAndVerify(t *testing.T, db *DB, op Op) ([]byte, digest.Digest) {
	t.Helper()
	oldRoot := db.Root()
	ans, vo, err := db.Apply(op)
	if err != nil {
		t.Fatalf("Apply(%v): %v", op, err)
	}
	newRoot, err := Verify(op, ans, vo, oldRoot)
	if err != nil {
		t.Fatalf("Verify(%v): %v", op, err)
	}
	if newRoot != db.Root() {
		t.Fatalf("client root %s != server root %s", newRoot.Short(), db.Root().Short())
	}
	return ans, newRoot
}

func TestWriteThenRead(t *testing.T) {
	db := New(4)
	applyAndVerify(t, db, &WriteOp{Puts: []KV{{"a", []byte("1")}, {"b", []byte("2")}}})
	ansBytes, _ := applyAndVerify(t, db, &ReadOp{Keys: []string{"a", "b", "c"}})

	ans, err := DecodeAnswer(ansBytes)
	if err != nil {
		t.Fatal(err)
	}
	ra, ok := ans.(ReadAnswer)
	if !ok {
		t.Fatalf("answer type %T", ans)
	}
	if len(ra.Results) != 3 {
		t.Fatalf("results: %+v", ra.Results)
	}
	if !ra.Results[0].Found || string(ra.Results[0].Val) != "1" {
		t.Fatalf("read a: %+v", ra.Results[0])
	}
	if ra.Results[2].Found {
		t.Fatalf("read c should be absent: %+v", ra.Results[2])
	}
	if db.Ctr() != 2 {
		t.Fatalf("ctr = %d, want 2", db.Ctr())
	}
}

func TestWriteDeletes(t *testing.T) {
	db := New(4)
	applyAndVerify(t, db, &WriteOp{Puts: []KV{{"a", []byte("1")}, {"b", []byte("2")}}})
	ansBytes, _ := applyAndVerify(t, db, &WriteOp{Deletes: []string{"a", "missing"}})
	ans, _ := DecodeAnswer(ansBytes)
	if wa := ans.(WriteAnswer); wa.Deleted != 1 {
		t.Fatalf("Deleted = %d, want 1", wa.Deleted)
	}
	ansBytes, _ = applyAndVerify(t, db, &ReadOp{Keys: []string{"a", "b"}})
	ans, _ = DecodeAnswer(ansBytes)
	if ra := ans.(ReadAnswer); ra.Results[0].Found || !ra.Results[1].Found {
		t.Fatalf("after deleting a: %+v", ra.Results)
	}
}

func TestRangeOp(t *testing.T) {
	db := New(4)
	var puts []KV
	for i := 0; i < 20; i++ {
		puts = append(puts, KV{fmt.Sprintf("k%02d", i), []byte{byte(i)}})
	}
	applyAndVerify(t, db, &WriteOp{Puts: puts})
	ansBytes, _ := applyAndVerify(t, db, &RangeOp{Lo: "k05", Hi: "k15"})
	ans, _ := DecodeAnswer(ansBytes)
	ra := ans.(RangeAnswer)
	if len(ra.Results) != 10 || ra.Results[0].Key != "k05" {
		t.Fatalf("range results: %+v", ra.Results)
	}
	// Limited range.
	ansBytes, _ = applyAndVerify(t, db, &RangeOp{Lo: "k00", Limit: 3})
	ans, _ = DecodeAnswer(ansBytes)
	if ra := ans.(RangeAnswer); len(ra.Results) != 3 {
		t.Fatalf("limited range: %+v", ra.Results)
	}
}

func TestNopOp(t *testing.T) {
	db := New(4)
	before := db.Root()
	applyAndVerify(t, db, &NopOp{})
	if db.Root() != before {
		t.Fatal("nop changed the root")
	}
	if db.Ctr() != 1 {
		t.Fatal("nop must still increment ctr")
	}
}

func TestBadOps(t *testing.T) {
	db := New(4)
	for name, op := range map[string]Op{
		"empty read":       &ReadOp{},
		"empty write":      &WriteOp{},
		"empty read key":   &ReadOp{Keys: []string{""}},
		"empty put key":    &WriteOp{Puts: []KV{{"", nil}}},
		"empty delete key": &WriteOp{Deletes: []string{""}},
		"negative limit":   &RangeOp{Limit: -1},
	} {
		if _, _, err := db.Apply(op); !errors.Is(err, ErrBadOp) {
			t.Errorf("%s: want ErrBadOp, got %v", name, err)
		}
	}
	if db.Ctr() != 0 {
		t.Fatal("failed ops must not advance ctr")
	}
}

func TestVerifyCatchesTamperedAnswer(t *testing.T) {
	db := New(4)
	applyAndVerify(t, db, &WriteOp{Puts: []KV{{"a", []byte("true-value")}}})

	oldRoot := db.Root()
	op := &ReadOp{Keys: []string{"a"}}
	_, vo, err := db.Apply(op)
	if err != nil {
		t.Fatal(err)
	}
	// Server lies about the answer.
	lie, err := EncodeAnswer(ReadAnswer{Results: []ReadResult{{Key: "a", Found: true, Val: []byte("forged")}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(op, lie, vo, oldRoot); !errors.Is(err, ErrAnswerMismatch) {
		t.Fatalf("want ErrAnswerMismatch, got %v", err)
	}
}

func TestVerifyCatchesStaleState(t *testing.T) {
	// Server answers from an old fork of the database: the VO root
	// will not match the client's trusted root.
	db := New(4)
	applyAndVerify(t, db, &WriteOp{Puts: []KV{{"a", []byte("1")}}})
	stale := db.Fork()
	applyAndVerify(t, db, &WriteOp{Puts: []KV{{"a", []byte("2")}}})

	trusted := db.Root()
	op := &ReadOp{Keys: []string{"a"}}
	ans, vo, err := stale.Apply(op)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(op, ans, vo, trusted); !errors.Is(err, merkle.ErrRootMismatch) {
		t.Fatalf("want ErrRootMismatch, got %v", err)
	}
}

func TestForkIndependence(t *testing.T) {
	db := New(4)
	applyAndVerify(t, db, &WriteOp{Puts: []KV{{"shared", []byte("x")}}})
	f := db.Fork()
	applyAndVerify(t, db, &WriteOp{Puts: []KV{{"main-only", []byte("m")}}})
	applyAndVerify(t, f, &WriteOp{Puts: []KV{{"fork-only", []byte("f")}}})

	if db.Root() == f.Root() {
		t.Fatal("forks did not diverge")
	}
	ansBytes, _, err := f.Apply(&ReadOp{Keys: []string{"main-only", "shared"}})
	if err != nil {
		t.Fatal(err)
	}
	ans, _ := DecodeAnswer(ansBytes)
	ra := ans.(ReadAnswer)
	if ra.Results[0].Found {
		t.Fatal("fork sees main's write")
	}
	if !ra.Results[1].Found {
		t.Fatal("fork lost shared prefix")
	}
}

func TestAnswerEncodingDeterministic(t *testing.T) {
	ans := ReadAnswer{Results: []ReadResult{{Key: "a", Found: true, Val: []byte("v")}}}
	a, err := EncodeAnswer(ans)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeAnswer(ans)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("answer encoding is not deterministic")
	}
}

// TestQuickClientServerAgreement: for random op sequences, client
// verification always succeeds against an honest server and the
// client's chained root digest tracks the server's exactly — the
// foundation the protocols build on.
func TestQuickClientServerAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := New([]int{3, 4, 8}[rng.Intn(3)])
		clientRoot := db.Root()
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			var op Op
			switch rng.Intn(4) {
			case 0:
				op = &ReadOp{Keys: []string{fmt.Sprintf("k%d", rng.Intn(50))}}
			case 1:
				op = &RangeOp{Lo: "k", Limit: 5}
			default:
				op = &WriteOp{Puts: []KV{{fmt.Sprintf("k%d", rng.Intn(50)), []byte{byte(rng.Int())}}}}
			}
			oldRoot := db.Root()
			ans, vo, err := db.Apply(op)
			if err != nil {
				t.Log(err)
				return false
			}
			newRoot, err := Verify(op, ans, vo, clientRoot)
			if err != nil {
				t.Log(err)
				return false
			}
			if oldRoot != clientRoot || newRoot != db.Root() {
				t.Log("root chain diverged")
				return false
			}
			clientRoot = newRoot
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInPlaceReplayMatchesPersistent: a Verifier replays puts in
// place in its arena, one Verifier per seed reused across every round;
// a persistent replay of the same operation on a second
// materialization of the same VO is the reference. For random
// put/delete batches — the recorded one, which the VO covers, and
// unrelated ones, which run into pruned nodes — the two must agree on
// both roots, the answer and every ErrPruned, whatever the arena kept
// from the rounds before.
func TestQuickInPlaceReplayMatchesPersistent(t *testing.T) {
	randomWrite := func(rng *rand.Rand) *WriteOp {
		op := &WriteOp{}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			op.Puts = append(op.Puts, KV{fmt.Sprintf("k%02d", rng.Intn(100)), []byte{byte(rng.Int()), byte(i)}})
		}
		for i, n := 0, rng.Intn(4); i < n || len(op.Puts)+len(op.Deletes) == 0; i++ {
			op.Deletes = append(op.Deletes, fmt.Sprintf("k%02d", rng.Intn(100)))
		}
		return op
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := New([]int{3, 4, 8}[rng.Intn(3)])
		for i, n := 0, rng.Intn(80); i < n; i++ {
			if _, err := db.ApplyPlain(&WriteOp{Puts: []KV{{fmt.Sprintf("k%02d", rng.Intn(100)), []byte{byte(i)}}}}); err != nil {
				t.Log(err)
				return false
			}
		}
		var ver Verifier
		for round := 0; round < 20; round++ {
			recorded := randomWrite(rng)
			serverAns, vo, err := db.Apply(recorded)
			if err != nil {
				t.Log(err)
				return false
			}
			replayed := recorded
			if rng.Intn(2) == 0 {
				replayed = randomWrite(rng)
			}

			ref, err := vo.Tree()
			if err != nil {
				t.Log(err)
				return false
			}
			refOld := ref.RootDigest()
			tx := ref.Begin() // ref is published: the transaction copies what it changes
			refAns, refErr := replayed.Apply((*Tx)(tx))
			claimed := serverAns
			if refErr == nil {
				if claimed, err = EncodeAnswer(refAns); err != nil {
					t.Log(err)
					return false
				}
			}

			v, err := ver.VerifyDerive(replayed, claimed, vo)
			oldRoot, newRoot := v.OldRoot(), v.NewRoot()
			if refErr != nil {
				if err == nil || err.Error() != refErr.Error() || errors.Is(err, merkle.ErrPruned) != errors.Is(refErr, merkle.ErrPruned) {
					t.Logf("round %d: in place %v, persistent %v", round, err, refErr)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("round %d: in place %v, persistent succeeded", round, err)
				return false
			}
			if oldRoot != refOld || newRoot != tx.Tree().RootDigest() || ref.RootDigest() != refOld {
				t.Logf("round %d: roots diverged", round)
				return false
			}
			if replayed == recorded && (newRoot != db.Root() || string(claimed) != string(serverAns)) {
				t.Logf("round %d: replay of the recorded op left the server's chain", round)
				return false
			}
			// The VO is untouched: it still materializes the pre-state.
			if again, err := vo.Tree(); err != nil || again.RootDigest() != refOld {
				t.Logf("round %d: in-place replay wrote through to the VO", round)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotThroughBytes: a database survives its persistent
// encoding with the exact head, what decodes re-encodes to the same
// bytes, and a sharded layout — a nonzero shard count, however large —
// is refused with ErrForestSnapshot.
func TestSnapshotThroughBytes(t *testing.T) {
	db := New(4)
	for i := 0; i < 40; i++ {
		if _, _, err := db.Apply(&WriteOp{Puts: []KV{{Key: fmt.Sprintf("k%02d", i), Val: []byte{byte(i)}}}}); err != nil {
			t.Fatal(err)
		}
	}
	enc := AppendSnapshot(nil, db.Snapshot())
	r := binenc.NewReader(enc)
	snap, err := ReadSnapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if again := AppendSnapshot(nil, snap); !bytes.Equal(again, enc) {
		t.Fatal("decode + encode is not the identity")
	}
	back, err := RestoreDB(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Root() != db.Root() || back.Ctr() != 40 {
		t.Fatalf("restored to (%d, %s), want (40, %s)", back.Ctr(), back.Root().Short(), db.Root().Short())
	}
	for _, n := range []uint64{1, 4, 1 << 40} {
		if _, err := ReadSnapshot(binenc.NewReader(binary.AppendUvarint([]byte{40}, n))); !errors.Is(err, ErrForestSnapshot) {
			t.Errorf("shard count %d read as %v, want ErrForestSnapshot", n, err)
		}
	}
}
