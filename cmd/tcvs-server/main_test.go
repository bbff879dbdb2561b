package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trustedcvs/internal/server"
)

// TestMain lets a test run the real command: with TCVS_TEST_MAIN set,
// the test binary is tcvs-server.
func TestMain(m *testing.M) {
	if os.Getenv("TCVS_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestOldSnapshotRefusedAtBoot: `tcvs-server -data <snapshot in an
// older format>` — gob-era, or the 0x85 layout of the previous binary —
// exits non-zero naming the format. It must not take the file for a
// first boot — the periodic saver would then overwrite the only copy of
// the repository with an empty one — and leaves it as it was.
func TestOldSnapshotRefusedAtBoot(t *testing.T) {
	for _, fixture := range []string{"gob-p2-snapshot-3commits.snap", "fmt85-p2-snapshot-single.snap"} {
		old, err := os.ReadFile(filepath.Join("..", "..", "internal", "server", "testdata", "golden", fixture))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "old.snap")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runServer(t, "-addr", "127.0.0.1:0", "-hub", "127.0.0.1:0", "-proto", "2", "-data", path, "-save-interval", "10ms")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("tcvs-server over %s: err %v, output %q; want exit status 1", fixture, err, out)
		}
		if !strings.Contains(string(out), server.ErrSnapshotFormat.Error()) {
			t.Errorf("tcvs-server over %s does not name the format: %q", fixture, out)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, old) {
			t.Fatalf("the refused snapshot %s changed on disk (err %v)", fixture, err)
		}
		if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
			t.Fatalf("a saver rotated the refused snapshot %s aside (stat: %v)", fixture, err)
		}
	}
}

// TestDataRefusedWhereNotSaved: -data names a durable record only an
// honest Protocol II server keeps. Under Protocol I or III, or under a
// malicious -behavior, tcvs-server refuses to start — exit 1, naming
// the reason — instead of ignoring the flag or loading a snapshot it
// would never save.
func TestDataRefusedWhereNotSaved(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-proto", "1"}, "-data needs -proto 2"},
		{[]string{"-proto", "3"}, "-data needs -proto 2"},
		{[]string{"-proto", "2", "-behavior", "fork", "-group-b", "1"}, "-data needs -behavior honest"},
	} {
		path := filepath.Join(t.TempDir(), "state.bin")
		args := append([]string{"-addr", "127.0.0.1:0", "-data", path}, tc.args...)
		out, err := runServer(t, args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("tcvs-server %v: err %v, output %q; want exit status 1", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.reason) {
			t.Errorf("tcvs-server %v does not say %q: %q", tc.args, tc.reason, out)
		}
		if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 0 {
			t.Errorf("tcvs-server %v left %d file(s) beside -data", tc.args, len(entries))
		}
	}
}

// runServer runs the test binary as tcvs-server with args and returns
// its combined output once it exits, killing it if it keeps running.
func runServer(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TCVS_TEST_MAIN=1")
	done := make(chan struct{})
	var out []byte
	var err error
	go func() { out, err = cmd.CombinedOutput(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("tcvs-server %v kept running; output %q", args, out)
	}
	return out, err
}
