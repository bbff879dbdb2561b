package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/fault"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

// p2WithHistory builds a Protocol II server with a few verified
// commits, returning the server, store, and its encoded snapshot.
func p2WithHistory(t *testing.T, commits int) (Server, *cvs.Store, []byte) {
	t.Helper()
	db := vdb.New(0)
	srv := NewP2(db)
	store := cvs.NewStore()
	user := proto2.NewUser(0, db.Root(), 1000)
	for i := 1; i <= commits; i++ {
		content := fmt.Sprintf("v%d\n", i)
		op := &cvs.CommitOp{
			Files:  []cvs.CommitFile{{Path: "f", Hash: rcs.HashContent([]byte(content))}},
			Author: "u0", TimeUnix: int64(i),
		}
		raw, err := srv.HandleOp(user.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := user.HandleResponse(op, raw.(*core.OpResponseII)); err != nil {
			t.Fatal(err)
		}
		if err := store.Push("f", uint64(i), []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := SaveP2(&buf, srv, store); err != nil {
		t.Fatal(err)
	}
	return srv, store, buf.Bytes()
}

// TestLoadP2RejectsCorruptSnapshots: every way a checkpoint can rot on
// disk must produce a clean error — never a panic, never a silently
// restored wrong state (which would raise deviation alarms on every
// client whose registers commit to the real history).
func TestLoadP2RejectsCorruptSnapshots(t *testing.T) {
	_, _, good := p2WithHistory(t, 3)
	if _, _, err := LoadP2(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot must load: %v", err)
	}

	cases := map[string][]byte{
		"zero-length":      {},
		"magic only":       good[:4],
		"header truncated": good[:len(snapMagic)+3],
		"payload half":     good[:len(good)/2],
		"footer truncated": good[:len(good)-7],
	}
	for i := 0; i < len(good); i += len(good)/16 + 1 {
		flipped := append([]byte(nil), good...)
		flipped[i] ^= 0x40
		cases[fmt.Sprintf("bit flip at %d", i)] = flipped
	}
	for name, b := range cases {
		if _, _, err := LoadP2(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: corrupt snapshot loaded without error", name)
		}
	}
}

func TestLoadP3RejectsCorruptSnapshots(t *testing.T) {
	db := vdb.New(0)
	srv := NewP3(db)
	var buf bytes.Buffer
	if err := SaveP3(&buf, srv, cvs.NewStore()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, _, err := LoadP3(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot must load: %v", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	for name, b := range map[string][]byte{
		"zero-length": {},
		"truncated":   good[:len(good)/3],
		"bit flip":    flipped,
	} {
		if _, _, err := LoadP3(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: corrupt snapshot loaded without error", name)
		}
	}
}

func writeGen(t *testing.T, fs durable.FS, path string, srv Server, store *cvs.Store) error {
	t.Helper()
	return durable.WriteFileAtomic(fs, path, true, func(w io.Writer) error {
		return SaveP2(w, srv, store)
	})
}

func TestWriteSnapshotFileRotatesAndAutoLoads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")

	if _, _, err := LoadP2Auto(path); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: want ErrNoSnapshot, got %v", err)
	}

	srv, store, _ := p2WithHistory(t, 2)
	if err := writeGen(t, durable.OS, path, srv, store); err != nil {
		t.Fatal(err)
	}
	gen1Root := srv.DB().Root()

	srv2, store2, _ := p2WithHistory(t, 5)
	if err := writeGen(t, durable.OS, path, srv2, store2); err != nil {
		t.Fatal(err)
	}

	snap, from, err := LoadP2Auto(path)
	if err != nil {
		t.Fatal(err)
	}
	if from != path {
		t.Fatalf("loaded from %s, want current generation", from)
	}
	restored, _, err := RestoreP2(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.DB().Root() != srv2.DB().Root() {
		t.Fatal("current generation root mismatch")
	}

	// Corrupt the current generation in place: auto-load must fall back
	// to the rotated previous one.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, from, err = LoadP2Auto(path)
	if err != nil {
		t.Fatalf("fallback load: %v", err)
	}
	if from != durable.PrevPath(path) {
		t.Fatalf("loaded from %s, want previous generation", from)
	}
	restored, _, err = RestoreP2(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.DB().Root() != gen1Root {
		t.Fatal("previous generation root mismatch")
	}
}

// TestWriteSnapshotFileCrashWindows covers the snapshot-specific half
// of crash recovery: when a crash (or a lying disk) leaves the current
// generation missing or unverifiable, LoadP2Auto falls back to the
// rotated previous one and restores the exact pre-crash root. The
// crash points of the replace sequence itself are enumerated once, in
// internal/durable's TestWriteFileAtomicCrashPoints.
func TestWriteSnapshotFileCrashWindows(t *testing.T) {
	srv, store, _ := p2WithHistory(t, 2)
	srvNew, storeNew, _ := p2WithHistory(t, 6)

	t.Run("crash between rotate and install", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.snap")
		if err := writeGen(t, durable.OS, path, srv, store); err != nil {
			t.Fatal(err)
		}
		// Rename #1 rotates the good generation aside, rename #2 would
		// install the new one: crash between them.
		ffs := &fault.FaultyFS{CrashAtRename: 2}
		if err := writeGen(t, ffs, path, srvNew, storeNew); !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("want simulated crash, got %v", err)
		}
		snap, from, err := LoadP2Auto(path)
		if err != nil {
			t.Fatalf("recovery after rotate-window crash: %v", err)
		}
		if from != durable.PrevPath(path) {
			t.Fatalf("loaded from %s, want rotated previous generation", from)
		}
		restored, _, err := RestoreP2(snap)
		if err != nil {
			t.Fatal(err)
		}
		if restored.DB().Root() != srv.DB().Root() {
			t.Fatal("recovered generation is not the pre-crash state")
		}
	})

	t.Run("torn write is caught at load", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.snap")
		if err := writeGen(t, durable.OS, path, srv, store); err != nil {
			t.Fatal(err)
		}
		// The lying disk: the payload write persists half its bytes but
		// reports success, so the write completes "cleanly".
		// Writes: 1 magic, 2 length, 3 payload, 4 footer.
		ffs := &fault.FaultyFS{ShortWriteAt: 3}
		if err := writeGen(t, ffs, path, srvNew, storeNew); err != nil {
			t.Fatalf("torn write is silent by design, got %v", err)
		}
		snap, from, err := LoadP2Auto(path)
		if err != nil {
			t.Fatalf("recovery after torn write: %v", err)
		}
		if from != durable.PrevPath(path) {
			t.Fatalf("loaded from %s, want fallback to previous generation", from)
		}
		restored, _, err := RestoreP2(snap)
		if err != nil {
			t.Fatal(err)
		}
		if restored.DB().Root() != srv.DB().Root() {
			t.Fatal("recovered generation is not the last durable state")
		}
	})
}

// TestForestCrashRecoveryTornWrite kills a 4-shard forest server with a
// torn checkpoint write and reboots it. The recovered generation must
// reproduce every per-shard register chain and the root-of-roots
// exactly; clients whose registers commit to the durable history sync
// cleanly across the reboot; and the restored deployment still raises
// the typed TornTransaction detection when the server tears a
// cross-shard transaction post-restore — recovery must not blunt the
// forest's atomicity defenses.
func TestForestCrashRecoveryTornWrite(t *testing.T) {
	const shards = 4
	db := vdb.NewSharded(0, shards)
	srv := NewP2(db)
	store := cvs.NewStore()

	// Users 0 and 1 write the durable generation; user 2 writes only the
	// tail the crash will lose, so the survivors' registers stay aligned
	// with the recovered history.
	users := make([]*proto2.User, 3)
	for i := range users {
		users[i] = proto2.NewForestUser(sig.UserID(i), db.ShardRoots(), 1<<20)
	}
	do := func(s Server, u int, op vdb.Op) (any, error) {
		resp, err := s.HandleOp(users[u].Request(op))
		if err != nil {
			return nil, err
		}
		if cross, ok := op.(*vdb.CrossOp); ok {
			return users[u].HandleResponseForest(cross, resp.(*core.OpResponseForest))
		}
		return users[u].HandleResponse(op, resp.(*core.OpResponseII))
	}
	must := func(s Server, u int, op vdb.Op) {
		t.Helper()
		if _, err := do(s, u, op); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
	}
	write := func(k, v string) vdb.Op {
		return &vdb.WriteOp{Puts: []vdb.KV{{Key: k, Val: []byte(v)}}}
	}

	// Populate every shard's register chain, plus one cross-shard
	// transaction, keeping one key per shard for later use.
	byShard := make([]string, shards)
	for i, n := 0, 0; n < shards; i++ {
		if i == 1024 {
			t.Fatalf("1024 keys cover only %d of %d shards", n, shards)
		}
		k := fmt.Sprintf("key-%d", i)
		if s := vdb.RouteKey(k, shards); byShard[s] == "" {
			byShard[s] = k
			must(srv, n%2, write(k, "gen1"))
			n++
		}
	}
	ka, kb := byShard[0], byShard[1]
	must(srv, 0, &vdb.CrossOp{Legs: []vdb.Op{write(ka, "x1"), write(kb, "x2")}})

	// The durable generation.
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := writeGen(t, durable.OS, path, srv, store); err != nil {
		t.Fatal(err)
	}
	wantHeads := db.Heads()
	wantGCtr, wantRoot := db.Head()

	// The doomed tail: user 2 keeps operating, then the next checkpoint
	// tears mid-payload (the lying disk persists half the bytes and
	// reports success), and the process dies.
	must(srv, 2, write(ka, "lost"))
	must(srv, 2, &vdb.CrossOp{Legs: []vdb.Op{write(ka, "l1"), write(kb, "l2")}})
	if err := writeGen(t, &fault.FaultyFS{ShortWriteAt: 3}, path, srv, store); err != nil {
		t.Fatalf("torn write is silent by design, got %v", err)
	}

	// Reboot: auto-load must reject the torn generation and fall back to
	// the rotated previous one.
	snap, from, err := LoadP2Auto(path)
	if err != nil {
		t.Fatalf("recovery after torn checkpoint: %v", err)
	}
	if from != durable.PrevPath(path) {
		t.Fatalf("loaded from %s, want fallback to previous generation", from)
	}
	restored, _, err := RestoreP2(snap)
	if err != nil {
		t.Fatal(err)
	}

	// Every per-shard register chain and the root-of-roots survive.
	rdb := restored.DB()
	if rdb.Shards() != shards {
		t.Fatalf("restored forest has %d shards, want %d", rdb.Shards(), shards)
	}
	gotHeads := rdb.Heads()
	for s, h := range gotHeads {
		if h != wantHeads[s] {
			t.Fatalf("shard %d head (%d, %s), want (%d, %s)",
				s, h.Ctr, h.Root.Short(), wantHeads[s].Ctr, wantHeads[s].Root.Short())
		}
	}
	gctr, root := rdb.Head()
	if gctr != wantGCtr || root != wantRoot {
		t.Fatalf("restored head (%d, %s), want (%d, %s)", gctr, root.Short(), wantGCtr, wantRoot.Short())
	}
	if f := vdb.FoldHeads(gotHeads); f != root {
		t.Fatalf("fold of restored shard heads %s != published root %s", f.Short(), root.Short())
	}

	// The survivors' registers commit to exactly the recovered history:
	// a sync barrier over them closes with no alarm.
	reports := []core.SyncReportII{users[0].SyncReport(), users[1].SyncReport()}
	for u := 0; u < 2; u++ {
		if err := users[u].CompleteSync(reports); err != nil {
			t.Fatalf("user %d sync across reboot: %v", u, err)
		}
	}

	// Post-restore atomicity attack: the server proves a two-leg
	// cross-shard transaction on a throwaway fork but commits only one
	// leg for real. The victim's next operation is served from the real
	// history, whose head vector excludes the second leg — the detection
	// must be the typed TornTransaction, exactly as on a never-crashed
	// server.
	cross := &vdb.CrossOp{Legs: []vdb.Op{write(ka, "tx-a"), write(kb, "tx-b")}}
	req := users[0].Request(cross)
	fork := restored.Fork()
	forged, err := fork.HandleOp(req)
	if err != nil {
		t.Fatalf("fork cross: %v", err)
	}
	if _, err := restored.HandleOp(users[0].Request(cross.Legs[0])); err != nil {
		t.Fatalf("torn main leg: %v", err)
	}
	if _, err := users[0].HandleResponseForest(cross, forged.(*core.OpResponseForest)); err != nil {
		t.Fatalf("victim rejected a fully valid (forked) cross proof: %v", err)
	}
	_, err = do(restored, 0, &vdb.ReadOp{Keys: []string{ka}})
	de, ok := core.AsDetection(err)
	if !ok {
		t.Fatalf("torn commit went undetected after recovery: %v", err)
	}
	if de.Class != core.TornTransaction {
		t.Fatalf("detected class %v, want %v", de.Class, core.TornTransaction)
	}
}
