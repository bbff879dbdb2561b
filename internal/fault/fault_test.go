package fault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, ResetProb: 0.1, TruncateProb: 0.05, LatencyProb: 0.2, Latency: time.Millisecond}
	a, b := NewInjector(cfg), NewInjector(cfg)
	var sa, sb []Kind
	for i := 0; i < 500; i++ {
		sa = append(sa, a.Next().Kind)
		sb = append(sb, b.Next().Kind)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("same (seed, config) must produce the same decision sequence")
	}
	var faults int
	for _, k := range sa {
		if k != None {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("expected some injected faults over 500 draws")
	}
	if a.Injected() != uint64(faults) {
		t.Fatalf("Injected() = %d, want %d", a.Injected(), faults)
	}
}

func TestInjectorScriptAndWarmup(t *testing.T) {
	i := NewInjector(Config{
		Seed: 1, ResetProb: 1.0, After: 10,
		Script: []Event{{At: 3, Kind: Truncate}},
	})
	for n := 1; n <= 12; n++ {
		d := i.Next()
		switch {
		case n == 3:
			if d.Kind != Truncate {
				t.Fatalf("op 3: want scripted Truncate, got %v", d.Kind)
			}
		case n <= 10:
			if d.Kind != None {
				t.Fatalf("op %d: warm-up must suppress probabilistic faults, got %v", n, d.Kind)
			}
		default:
			if d.Kind != Reset {
				t.Fatalf("op %d: ResetProb=1 past warm-up must reset, got %v", n, d.Kind)
			}
		}
	}
}

// pipeConns builds a connected TCP pair so deadline and reset behavior
// is the real kernel's, not a net.Pipe approximation.
func pipeConns(t *testing.T) (client, server net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-done
	if s == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func TestConnReset(t *testing.T) {
	c, s := pipeConns(t)
	fc := WrapConn(c, NewInjector(Config{Script: []Event{{At: 1, Kind: Reset}}}))
	if _, err := fc.Write([]byte("hello")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected reset, got %v", err)
	}
	// The underlying connection really is severed: the peer sees EOF
	// or a reset, never a clean payload.
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if n, err := s.Read(buf); err == nil && n > 0 {
		t.Fatalf("peer read %d bytes after reset", n)
	}
}

func TestConnTruncateWritesPrefix(t *testing.T) {
	c, s := pipeConns(t)
	fc := WrapConn(c, NewInjector(Config{Script: []Event{{At: 1, Kind: Truncate}}}))
	payload := []byte("0123456789abcdef")
	if _, err := fc.Write(payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected truncation, got %v", err)
	}
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(s)
	if len(got) == 0 || len(got) >= len(payload) {
		t.Fatalf("peer saw %d bytes; want a strict non-empty prefix of %d", len(got), len(payload))
	}
	if !bytes.HasPrefix(payload, got) {
		t.Fatalf("peer saw %q, not a prefix of %q", got, payload)
	}
}

func TestConnLatencyDelays(t *testing.T) {
	c, s := pipeConns(t)
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := s.Read(buf); err != nil {
				return
			}
		}
	}()
	fc := WrapConn(c, NewInjector(Config{
		Latency: 30 * time.Millisecond,
		Script:  []Event{{At: 1, Kind: Latency}},
	}))
	start := time.Now()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency fault completed in %v; want >= 25ms", d)
	}
}

func TestFaultyFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	ffs := &FaultyFS{ShortWriteAt: 1}
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("short write must lie (report success): n=%d err=%v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(payload) {
		t.Fatalf("disk has %d bytes; short write must persist a strict prefix", len(got))
	}
}

// TestFaultyFSWriteAtSharesWriteSchedule: WriteAt counts on Write's
// schedule and tears the same way, so a journal writing at offsets
// meets every scheduled fault a plain writer does.
func TestFaultyFSWriteAtSharesWriteSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	ffs := &FaultyFS{ShortWriteAt: 2, CrashAtWrite: 3}
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("head")); err != nil {
		t.Fatal(err)
	}
	if n, err := f.WriteAt([]byte("shortAAA"), 4); err != nil || n != 8 {
		t.Fatalf("short WriteAt must lie (report success): n=%d err=%v", n, err)
	}
	if _, err := f.WriteAt([]byte("crashBBB"), 12); !errors.Is(err, ErrCrashed) {
		t.Fatalf("scheduled WriteAt crash = %v, want ErrCrashed", err)
	}
	_ = f.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "headshor\x00\x00\x00\x00cras"; string(got) != want {
		t.Fatalf("disk holds %q, want %q", got, want)
	}
}

func TestFaultyFSCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	tmp, final := filepath.Join(dir, "snap.tmp"), filepath.Join(dir, "snap")
	ffs := &FaultyFS{CrashAtRename: 1}
	f, err := ffs.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(tmp, final); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash before rename, got %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("FS must be dead after the crash point")
	}
	// Reboot view (plain OS): tmp exists, final never appeared.
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("final file must not exist after crash-before-rename: %v", err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("temp file should have survived: %v", err)
	}
	// Everything after the crash fails.
	if _, err := ffs.Create(filepath.Join(dir, "other")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Create must fail with ErrCrashed, got %v", err)
	}
}
