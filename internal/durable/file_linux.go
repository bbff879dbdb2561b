package durable

import (
	"errors"
	"os"
	"sync"
	"syscall"
)

// osFile adds fdatasync and fallocate to an *os.File. Both run on the
// raw descriptor, which Close would free for reuse by the next open;
// mu keeps them and Close apart, so a data flush racing a segment's
// sealing can only ever touch its own file.
type osFile struct {
	*os.File
	fd     int
	mu     sync.Mutex
	closed bool
}

func newOSFile(f *os.File) *osFile { return &osFile{File: f, fd: int(f.Fd())} }

// raw runs one system call on the open descriptor, retrying EINTR as
// package os does.
func (f *osFile) raw(op string, call func(fd int) error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return &os.PathError{Op: op, Path: f.Name(), Err: os.ErrClosed}
	}
	for {
		err := call(f.fd)
		if err == nil {
			return nil
		}
		if !errors.Is(err, syscall.EINTR) {
			return &os.PathError{Op: op, Path: f.Name(), Err: err}
		}
	}
}

func fdatasync(fd int) error { return syscall.Fdatasync(fd) }

func (f *osFile) SyncData() error { return f.raw("fdatasync", fdatasync) }

func (f *osFile) Allocate(size int64) error {
	err := f.raw("fallocate", func(fd int) error { return syscall.Fallocate(fd, 0, 0, size) })
	if errors.Is(err, syscall.EOPNOTSUPP) {
		return nil
	}
	return err
}

func (f *osFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return f.File.Close()
}
