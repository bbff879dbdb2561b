package workspace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"trustedcvs/internal/durable"
	"trustedcvs/internal/fault"
	"trustedcvs/internal/wire/wiretest"
)

// trackedFixture is a workspace tracking two checked-out files, and its
// metadata file's bytes.
func trackedFixture(t *testing.T) (*fixture, []byte) {
	t.Helper()
	f := newFixture(t)
	f.commitOther("a.txt", "alpha\n")
	f.commitOther("dir/b.txt", "bravo\n")
	f.commitOther("a.txt", "alpha 2\n")
	if err := f.ws.Checkout("a.txt", "dir/b.txt"); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(f.ws.Dir(), MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	return f, meta
}

// TestMetaGoldenBytes pins the metadata file as it sits on disk
// (-update rewrites it): the golden opens to the same tracked entries
// and saves back to the same bytes.
func TestMetaGoldenBytes(t *testing.T) {
	f, meta := trackedFixture(t)
	golden := filepath.Join("testdata", "golden", "tcvs-workspace")
	wiretest.Bytes(t, golden, meta)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, MetaFile), want, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.meta, f.ws.meta) || back.meta["a.txt"].Rev != 2 {
		t.Fatalf("golden metadata opens as %+v, the live workspace tracks %+v", back.meta, f.ws.meta)
	}
	if err := back.save(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(filepath.Join(dir, MetaFile)); err != nil || !bytes.Equal(again, want) {
		t.Errorf("open + save is not the identity (err %v)", err)
	}
}

// TestMetaTruncatedOrRottenIsRefused: cut the saved file at every
// length and flip every byte. Each is refused with a typed error; none
// opens as a silently empty (or silently different) workspace.
func TestMetaTruncatedOrRottenIsRefused(t *testing.T) {
	_, meta := trackedFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, MetaFile)
	try := func(what string, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(dir, nil)
		if w != nil || !(errors.Is(err, durable.ErrCorrupt) || errors.Is(err, ErrMetaFormat)) {
			t.Fatalf("%s: Open = %v, %v; want durable.ErrCorrupt or ErrMetaFormat and no workspace", what, w, err)
		}
	}
	for n := 0; n < len(meta); n++ {
		try("truncated", meta[:n])
	}
	for i := range meta {
		rotten := bytes.Clone(meta)
		rotten[i] ^= 0x04
		try("bit flip", rotten)
	}
	try("trailing byte", append(bytes.Clone(meta), 0))
}

// TestMetaSaveCrashKeepsPrevious: a save that dies mid-write or just
// before the rename leaves the previous metadata in place and loadable
// — the bare os.WriteFile this replaces truncated it, and every tracked
// base revision was lost.
func TestMetaSaveCrashKeepsPrevious(t *testing.T) {
	for name, crash := range map[string]*fault.FaultyFS{
		"mid-write":     {CrashAtWrite: 3},
		"before rename": {CrashAtRename: 1},
	} {
		t.Run(name, func(t *testing.T) {
			f, meta := trackedFixture(t)
			f.writeLocal("new.txt", "n\n")
			f.ws.fs = crash
			if err := f.ws.Add("new.txt"); !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("Add = %v, want the simulated crash", err)
			}
			if after, err := os.ReadFile(filepath.Join(f.ws.Dir(), MetaFile)); err != nil || !bytes.Equal(after, meta) {
				t.Fatalf("the metadata file changed under a crashed save (err %v)", err)
			}
			back, err := Open(f.ws.Dir(), nil)
			if err != nil {
				t.Fatalf("metadata unloadable after the crash: %v", err)
			}
			if got := back.Tracked(); !reflect.DeepEqual(got, []string{"a.txt", "dir/b.txt"}) {
				t.Fatalf("tracked after the crash: %v", got)
			}
		})
	}
}

// TestOldFormatMetaRefused: the bare gob map an older binary kept is
// refused with ErrMetaFormat and left as it was.
func TestOldFormatMetaRefused(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "golden", "gob-tcvs-workspace"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, MetaFile)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if w, err := Open(dir, nil); !errors.Is(err, ErrMetaFormat) || w != nil {
		t.Fatalf("Open over gob-era metadata = %v, %v; want ErrMetaFormat", w, err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, old) {
		t.Fatalf("the refused file changed on disk (err %v)", err)
	}
}
