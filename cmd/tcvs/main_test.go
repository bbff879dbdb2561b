package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/fault"
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
			u, err := loadUser2(path, 0, 16, 1)
			if err != nil {
				t.Fatalf("state file unloadable after the crash: %v", err)
			}
			if got, err := u.MarshalState(); err != nil || !bytes.Equal(got, v1) {
				t.Fatalf("loaded state differs from the last saved one (err %v)", err)
			}
		})
	}
}
