package durable

import (
	"errors"
	"os"
	"sync"
	"syscall"
)

// osFile adds fdatasync to an *os.File. It runs on the raw descriptor,
// which Close would free for reuse by the next open; mu keeps it and
// Close apart, so a data flush racing a segment's sealing can only ever
// touch its own file.
type osFile struct {
	*os.File
	fd     int
	mu     sync.Mutex
	closed bool
}

func newOSFile(f *os.File) *osFile { return &osFile{File: f, fd: int(f.Fd())} }

// SyncData runs fdatasync on the open descriptor, retrying EINTR as
// package os does.
func (f *osFile) SyncData() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: os.ErrClosed}
	}
	for {
		err := syscall.Fdatasync(f.fd)
		if err == nil {
			return nil
		}
		if !errors.Is(err, syscall.EINTR) {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}

func (f *osFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return f.File.Close()
}
