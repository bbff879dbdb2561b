package fault

import (
	"errors"
	"fmt"
	"sync"

	"trustedcvs/internal/durable"
)

// ErrCrashed is returned by every FaultyFS operation after the
// simulated crash point: the process is "dead", nothing it does from
// then on reaches the disk.
var ErrCrashed = errors.New("fault: filesystem crashed")

// FaultyFS wraps a durable.FS and injects persistence faults at exact
// operation indices (1-based, counted per operation type). The
// dangerous property it simulates: everything before the crash point
// really happened on the inner FS, nothing after it does — so a test
// can "reboot" by reading the directory back with the plain OS FS and
// observing exactly the torn state a power cut would leave.
type FaultyFS struct {
	Inner durable.FS

	// ShortWriteAt makes the Nth Write or WriteAt (one counter)
	// persist only half its bytes while reporting full success — a
	// lying disk / torn page. The FS stays alive: the bug is silent
	// until load time, which is what the snapshot checksum exists to
	// catch.
	ShortWriteAt uint64
	// CrashAtWrite makes the Nth Write or WriteAt persist half its
	// bytes and then crash the FS.
	CrashAtWrite uint64
	// CrashAtRename crashes the FS before performing the Nth Rename —
	// the classic "temp file written and synced, rename never
	// happened" window.
	CrashAtRename uint64
	// CrashAtSync crashes the FS before the Nth Sync or SyncData (one
	// counter: a data-only flush is a sync point like any other): data
	// may be in the page cache but was never made durable.
	CrashAtSync uint64
	// CrashAtCreate crashes the FS before the Nth Create — a WAL
	// segment rotation that sealed the old segment but died before the
	// new one existed.
	CrashAtCreate uint64
	// CrashAtRemove crashes the FS before the Nth Remove — a WAL
	// truncation that died after the cursor was written but before the
	// obsolete segments were unlinked, leaving stale-but-checksummed
	// frames for recovery to skip.
	CrashAtRemove uint64

	mu      sync.Mutex
	writes  uint64
	renames uint64
	syncs   uint64
	creates uint64
	removes uint64
	crashed bool
}

// Crashed reports whether the simulated crash point has been reached.
func (f *FaultyFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

func (f *FaultyFS) dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

func (f *FaultyFS) inner() durable.FS {
	if f.Inner != nil {
		return f.Inner
	}
	return durable.OS
}

// Create opens a faulty file handle unless this is the scheduled
// crash point.
func (f *FaultyFS) Create(name string) (durable.File, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.creates++
	if f.CrashAtCreate != 0 && f.creates == f.CrashAtCreate {
		f.crashed = true
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: before create %s", ErrCrashed, name)
	}
	f.mu.Unlock()
	inner, err := f.inner().Create(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

// Reopen opens a faulty handle on an existing file unless crashed.
func (f *FaultyFS) Reopen(name string) (durable.File, error) {
	if f.dead() {
		return nil, ErrCrashed
	}
	inner, err := f.inner().Reopen(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

// Rename performs the rename unless this is the scheduled crash point.
func (f *FaultyFS) Rename(o, n string) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.renames++
	if f.CrashAtRename != 0 && f.renames == f.CrashAtRename {
		f.crashed = true
		f.mu.Unlock()
		return fmt.Errorf("%w: before rename %s -> %s", ErrCrashed, o, n)
	}
	f.mu.Unlock()
	return f.inner().Rename(o, n)
}

// Remove removes unless crashed or this is the scheduled crash point.
func (f *FaultyFS) Remove(name string) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.removes++
	if f.CrashAtRemove != 0 && f.removes == f.CrashAtRemove {
		f.crashed = true
		f.mu.Unlock()
		return fmt.Errorf("%w: before remove %s", ErrCrashed, name)
	}
	f.mu.Unlock()
	return f.inner().Remove(name)
}

// Exists checks existence unless crashed.
func (f *FaultyFS) Exists(name string) (bool, error) {
	if f.dead() {
		return false, ErrCrashed
	}
	return f.inner().Exists(name)
}

// SyncDir syncs the directory unless crashed.
func (f *FaultyFS) SyncDir(dir string) error {
	if f.dead() {
		return ErrCrashed
	}
	return f.inner().SyncDir(dir)
}

type faultyFile struct {
	fs    *FaultyFS
	inner durable.File
}

func (w *faultyFile) Write(p []byte) (int, error) {
	return w.fs.write(p, w.inner.Write)
}

// WriteAt counts on the same write schedule as Write: a journal that
// writes at offsets meets the same torn writes and crashes.
func (w *faultyFile) WriteAt(p []byte, off int64) (int, error) {
	return w.fs.write(p, func(b []byte) (int, error) { return w.inner.WriteAt(b, off) })
}

// write counts one write and performs it through do, tearing it or
// crashing the FS if it is a scheduled one.
func (f *FaultyFS) write(p []byte, do func([]byte) (int, error)) (int, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return 0, ErrCrashed
	}
	f.writes++
	n := f.writes
	short := f.ShortWriteAt != 0 && n == f.ShortWriteAt
	crash := f.CrashAtWrite != 0 && n == f.CrashAtWrite
	if crash {
		f.crashed = true
	}
	f.mu.Unlock()

	switch {
	case crash:
		_, _ = do(p[:len(p)/2])
		return 0, fmt.Errorf("%w: mid-write", ErrCrashed)
	case short:
		// Persist half, report success: the torn write no checksumless
		// loader can see.
		if _, err := do(p[:len(p)/2]); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return do(p)
}

func (w *faultyFile) Sync() error {
	if err := w.fs.beforeSync(); err != nil {
		return err
	}
	return w.inner.Sync()
}

func (w *faultyFile) SyncData() error {
	if err := w.fs.beforeSync(); err != nil {
		return err
	}
	return w.inner.SyncData()
}

// beforeSync counts one sync point and crashes the FS if it is the
// scheduled one.
func (f *FaultyFS) beforeSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	f.syncs++
	if f.CrashAtSync != 0 && f.syncs == f.CrashAtSync {
		f.crashed = true
		return fmt.Errorf("%w: before sync", ErrCrashed)
	}
	return nil
}

func (w *faultyFile) Truncate(size int64) error {
	if w.fs.dead() {
		return ErrCrashed
	}
	return w.inner.Truncate(size)
}

func (w *faultyFile) Close() error {
	// Close always reaches the inner file so tests do not leak
	// descriptors; a crashed FS still reports the crash.
	err := w.inner.Close()
	if w.fs.dead() {
		return ErrCrashed
	}
	return err
}
