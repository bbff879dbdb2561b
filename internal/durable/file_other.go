//go:build !linux

package durable

import "os"

// osFile is an *os.File; without fdatasync a data-only flush is a full
// one.
type osFile struct{ *os.File }

func newOSFile(f *os.File) *osFile { return &osFile{f} }

func (f *osFile) SyncData() error { return f.Sync() }
