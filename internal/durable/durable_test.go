package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/fault"
)

const (
	testMagic  = "DURTEST1\n"
	testDomain = digest.DomainSnapshot
	testMax    = 1 << 20
)

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	f, err := durable.OS.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := durable.OS.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	if err := durable.OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	ok, err := durable.OS.Exists(path + ".2")
	if err != nil || !ok {
		t.Fatalf("Exists(%s) = %v, %v", path+".2", ok, err)
	}
	ok, err = durable.OS.Exists(path)
	if err != nil || ok {
		t.Fatalf("Exists(%s) = %v, %v; want false", path, ok, err)
	}
}

// TestOSFilePreallocateAndTrim walks the journal's file life cycle on
// the real filesystem: preallocate by writing zeros, write into that
// space at an offset without changing the size, flush the data, trim
// to the written end, reopen in place and trim again. A flush of a
// closed file must fail, not reach whatever descriptor took its
// number.
func TestOSFilePreallocateAndTrim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	f, err := durable.OS.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 1<<16), 0); err != nil {
		t.Fatalf("WriteAt zeros: %v", err)
	}
	if _, err := f.WriteAt([]byte("frames"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := f.SyncData(); err != nil {
		t.Fatalf("SyncData: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1<<16 || string(data[:6]) != "frames" || bytes.Count(data[6:], []byte{0}) != len(data)-6 {
		t.Fatalf("preallocated file reads %d bytes, %q…; want 65536, the frames then zeros", len(data), data[:6])
	}
	if err := f.Truncate(6); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncData(); err == nil {
		t.Fatal("SyncData of a closed file succeeded")
	}
	g, err := durable.OS.Reopen(path)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if err := g.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "fra" {
		t.Fatalf("after reopen and trim: %q, %v; want \"fra\"", data, err)
	}
}

// TestEnvelopeSeparatesMagicAndDomain: one codec serves every file
// kind, so a file of one kind must never verify as another — neither
// under a different magic nor under a different digest domain.
func TestEnvelopeSeparatesMagicAndDomain(t *testing.T) {
	var buf bytes.Buffer
	if err := durable.WriteEnvelope(&buf, testMagic, testDomain, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := durable.ReadEnvelope(bytes.NewReader(buf.Bytes()), testMagic, testDomain, testMax)
	if err != nil || string(got) != "payload" {
		t.Fatalf("round trip = (%q, %v)", got, err)
	}
	if _, err := durable.ReadEnvelope(bytes.NewReader(buf.Bytes()), "DURTEST2\n", testDomain, testMax); err == nil {
		t.Error("envelope verified under a different magic")
	}
	if _, err := durable.ReadEnvelope(bytes.NewReader(buf.Bytes()), testMagic, digest.DomainWALCursor, testMax); err == nil {
		t.Error("envelope verified under a different digest domain")
	}
	if _, err := durable.ReadEnvelope(bytes.NewReader(buf.Bytes()), testMagic, testDomain, 3); err == nil {
		t.Error("payload longer than maxBytes was accepted")
	}
}

// failSyncDir is an FS whose directory sync fails while everything
// else works — the one WriteFileAtomic step FaultyFS has no crash
// point for.
type failSyncDir struct{ durable.FS }

func (failSyncDir) SyncDir(string) error { return errors.New("injected dirsync failure") }

// reboot reads back what actually hit the disk the way a restarted
// process would: the current file first, then (keepPrev only) the
// previous generation. It returns the newest payload that verifies
// (nil if none) and whether any existing generation failed
// verification.
func reboot(t *testing.T, path string, keepPrev bool) (payload []byte, sawCorrupt bool) {
	t.Helper()
	cands := []string{path}
	if keepPrev {
		cands = append(cands, durable.PrevPath(path))
	}
	for _, cand := range cands {
		data, err := os.ReadFile(cand)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		p, err := durable.ReadEnvelope(bytes.NewReader(data), testMagic, testDomain, testMax)
		if err != nil {
			sawCorrupt = true
			continue
		}
		return p, sawCorrupt
	}
	return nil, sawCorrupt
}

// TestWriteFileAtomicCrashPoints drives the one atomic-replace
// sequence through every fault point, for both keepPrev values, over
// an existing file and on a first write, and reboots after each: what
// loads is the old payload or the new one, never a hybrid. A torn
// write the disk lied about is caught by the envelope; the old payload
// then survives exactly when a previous generation was kept.
func TestWriteFileAtomicCrashPoints(t *testing.T) {
	oldPayload, newPayload := []byte("old generation"), []byte("the new generation")
	envelope := func(p []byte) func(io.Writer) error {
		return func(w io.Writer) error { return durable.WriteEnvelope(w, testMagic, testDomain, p) }
	}
	// rotates says whether this write performs the rotate rename
	// before the install rename (keepPrev over an existing file).
	cases := []struct {
		name       string
		fs         func(rotates bool) durable.FS
		needRotate bool
		silent     bool   // the fault is invisible to the writer
		want       string // "old", "new" or "torn"
	}{
		{name: "CrashAtCreate", want: "old",
			fs: func(bool) durable.FS { return &fault.FaultyFS{CrashAtCreate: 1} }},
		// Envelope writes: 1 magic, 2 length, 3 payload, 4 footer.
		{name: "ShortWriteAt", want: "torn", silent: true,
			fs: func(bool) durable.FS { return &fault.FaultyFS{ShortWriteAt: 3} }},
		{name: "CrashAtWrite", want: "old",
			fs: func(bool) durable.FS { return &fault.FaultyFS{CrashAtWrite: 3} }},
		{name: "CrashAtSync", want: "old",
			fs: func(bool) durable.FS { return &fault.FaultyFS{CrashAtSync: 1} }},
		{name: "CrashAtRename/rotate", want: "old", needRotate: true,
			fs: func(bool) durable.FS { return &fault.FaultyFS{CrashAtRename: 1} }},
		{name: "CrashAtRename/install", want: "old",
			fs: func(rotates bool) durable.FS {
				if rotates {
					return &fault.FaultyFS{CrashAtRename: 2}
				}
				return &fault.FaultyFS{CrashAtRename: 1}
			}},
		// The install happened; only the durability of the new name is
		// in doubt, and the writer is told.
		{name: "SyncDirFails", want: "new",
			fs: func(bool) durable.FS { return failSyncDir{durable.OS} }},
	}
	for _, tc := range cases {
		for _, keepPrev := range []bool{false, true} {
			for _, fresh := range []bool{false, true} {
				rotates := keepPrev && !fresh
				if tc.needRotate && !rotates {
					continue
				}
				t.Run(fmt.Sprintf("%s/keepPrev=%v/fresh=%v", tc.name, keepPrev, fresh), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "state")
					var old []byte
					if !fresh {
						old = oldPayload
						if err := durable.WriteFileAtomic(durable.OS, path, keepPrev, envelope(old)); err != nil {
							t.Fatal(err)
						}
					}

					err := durable.WriteFileAtomic(tc.fs(rotates), path, keepPrev, envelope(newPayload))
					if tc.silent != (err == nil) {
						t.Fatalf("WriteFileAtomic = %v, want silent=%v", err, tc.silent)
					}
					got, sawCorrupt := reboot(t, path, keepPrev)
					switch tc.want {
					case "old":
						if !bytes.Equal(got, old) || sawCorrupt {
							t.Fatalf("rebooted to %q (corrupt=%v), want the old payload %q", got, sawCorrupt, old)
						}
					case "new":
						if !bytes.Equal(got, newPayload) || sawCorrupt {
							t.Fatalf("rebooted to %q (corrupt=%v), want the new payload", got, sawCorrupt)
						}
					case "torn":
						want := old
						if !keepPrev {
							want = nil // the replaced file is gone; detection is all that is left
						}
						if !sawCorrupt || !bytes.Equal(got, want) {
							t.Fatalf("rebooted to %q (corrupt=%v), want the torn file rejected and %q recovered", got, sawCorrupt, want)
						}
					}

					// After the reboot a clean retry goes through over
					// whatever the crash left behind.
					if err := durable.WriteFileAtomic(durable.OS, path, keepPrev, envelope(newPayload)); err != nil {
						t.Fatalf("retry after reboot: %v", err)
					}
					if got, _ := reboot(t, path, keepPrev); !bytes.Equal(got, newPayload) {
						t.Fatalf("retry after reboot loaded %q, want the new payload", got)
					}
				})
			}
		}
	}
}
