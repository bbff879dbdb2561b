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
