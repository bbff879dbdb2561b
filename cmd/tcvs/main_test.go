package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/fault"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/wire/wiretest"
)

// TestSaveUserCrashKeepsPreviousState: a crash while the register file
// is being saved — mid-write or just before the rename — must leave
// the previously saved state loadable, not an empty or torn file.
func TestSaveUserCrashKeepsPreviousState(t *testing.T) {
	v1, err := proto2.NewUser(0, digest.Empty(), 16).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	v2 := proto2.NewUser(0, digest.OfBytes(digest.DomainBlob, []byte("later root")), 16).MarshalState

	for name, crash := range map[string]*fault.FaultyFS{
		"mid-write":     {CrashAtWrite: 1},
		"before rename": {CrashAtRename: 1},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tcvs-user0.state")
			fs := ownerOnly{durable.OS}
			if err := saveUser(fs, path, func() ([]byte, error) { return v1, nil }); err != nil {
				t.Fatal(err)
			}
			if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o600 {
				t.Fatalf("state file mode = %v, %v; want 0600", info.Mode().Perm(), err)
			}

			crash.Inner = fs
			if err := saveUser(crash, path, v2); !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("saveUser = %v, want the simulated crash", err)
			}
			u, err := loadUser2(path, 0, 16)
			if err != nil {
				t.Fatalf("state file unloadable after the crash: %v", err)
			}
			if got, err := u.MarshalState(); err != nil || !bytes.Equal(got, v1) {
				t.Fatalf("loaded state differs from the last saved one (err %v)", err)
			}
		})
	}
}

// TestMain lets a test run the real command: with TCVS_TEST_MAIN set,
// the test binary is tcvs.
func TestMain(m *testing.M) {
	if os.Getenv("TCVS_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// stateFiles saves one register file per protocol and shape and
// returns, for each, a loader reporting whether a user came back.
func stateFiles(t *testing.T, dir string) map[string]func(path string) (bool, error) {
	t.Helper()
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, marshal := range map[string]func() ([]byte, error){
		"p1.state":        proto1.NewUser(signers[0], ring, 16).MarshalState,
		"p2-single.state": proto2.NewUser(0, digest.Empty(), 16).MarshalState,
	} {
		if err := saveUser(ownerOnly{durable.OS}, filepath.Join(dir, name), marshal); err != nil {
			t.Fatal(err)
		}
	}
	load2 := func(path string) (bool, error) {
		u, err := loadUser2(path, 0, 16)
		return u != nil, err
	}
	return map[string]func(string) (bool, error){
		"p1.state": func(path string) (bool, error) {
			u, err := loadUser1(path, signers[0], ring, 16)
			return u != nil, err
		},
		"p2-single.state": load2,
	}
}

// TestRegisterFileRotIsRefused: flip each byte of a saved Protocol I
// and II register file. Every one must be
// refused with a typed error and no user returned: registers restored
// from a rotted file would make this client convict an honest server —
// a false alarm the paper rules out.
func TestRegisterFileRotIsRefused(t *testing.T) {
	dir := t.TempDir()
	for name, load := range stateFiles(t, dir) {
		path := filepath.Join(dir, name)
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := load(path); err != nil || !ok {
			t.Fatalf("%s: the pristine file does not load: %v", name, err)
		}
		try := func(what string, b []byte) {
			t.Helper()
			if err := os.WriteFile(path, b, 0o600); err != nil {
				t.Fatal(err)
			}
			ok, err := load(path)
			if ok || !(errors.Is(err, durable.ErrCorrupt) || errors.Is(err, core.ErrStateFormat)) {
				t.Fatalf("%s, %s: load = %v, %v; want durable.ErrCorrupt or core.ErrStateFormat and no user", name, what, ok, err)
			}
		}
		for i := range good {
			rotten := bytes.Clone(good)
			rotten[i] ^= 0x01
			try(fmt.Sprintf("byte %d flipped", i), rotten)
		}
		try("truncated", good[:len(good)-1])
		try("empty", nil)
	}
}

// TestRegisterFileGoldenBytes pins a register file as it sits on disk
// (-update rewrites it): it loads, and saving what loaded writes the
// same bytes.
func TestRegisterFileGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	stateFiles(t, dir)
	written, err := os.ReadFile(filepath.Join(dir, "p2-single.state"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden", "tcvs-user0.state")
	wiretest.Bytes(t, golden, written)
	u, err := loadUser2(golden, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(dir, "again.state")
	if err := saveUser(ownerOnly{durable.OS}, again, u.MarshalState); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(again); err != nil || !bytes.Equal(got, want) {
		t.Errorf("load + save is not the identity (err %v)", err)
	}
}

// TestOldStateFileRefused: `tcvs -state <gob-era file>` exits non-zero
// naming the format, and — unlike every other failed command — leaves
// the file exactly as it was instead of saving fresh registers over it.
func TestOldStateFileRefused(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "golden", "gob-tcvs-user0.state"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tcvs-user0.state")
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	if u, err := loadUser2(path, 0, 16); !errors.Is(err, core.ErrStateFormat) || u != nil {
		t.Fatalf("loadUser2 = %v, %v; want core.ErrStateFormat", u, err)
	}
	// Nothing listens on port 1: the command must fail at the state
	// file, before it needs either connection.
	cmd := exec.Command(os.Args[0], "-state", path, "-server", "127.0.0.1:1", "-hub", "127.0.0.1:1", "log", "f")
	cmd.Env = append(os.Environ(), "TCVS_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("tcvs over a gob-era state file: err %v, output %q; want exit status 1", err, out)
	}
	if !strings.Contains(string(out), core.ErrStateFormat.Error()) {
		t.Errorf("tcvs does not name the format: %q", out)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, old) {
		t.Fatalf("the refused state file changed on disk (err %v)", err)
	}
}

// TestForestStateFileRefused: the register file of a user of a sharded
// database (a 4-shard forest, as earlier binaries saved it) is refused
// with core.ErrStateFormat.
func TestForestStateFileRefused(t *testing.T) {
	path := filepath.Join("testdata", "golden", "forest-tcvs-user0.state")
	if u, err := loadUser2(path, 0, 16); !errors.Is(err, core.ErrStateFormat) || u != nil {
		t.Fatalf("loadUser2 = %v, %v; want core.ErrStateFormat", u, err)
	}
}
