//go:build !linux

package durable

import "os"

// osFile is an *os.File; without fdatasync and fallocate a data-only
// flush is a full one and preallocation is skipped.
type osFile struct{ *os.File }

func newOSFile(f *os.File) *osFile { return &osFile{f} }

func (f *osFile) SyncData() error      { return f.Sync() }
func (f *osFile) Allocate(int64) error { return nil }
