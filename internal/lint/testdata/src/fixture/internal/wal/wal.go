// Package wal exercises syncdiscipline: publishing a durable artifact
// — renaming a file into place, or creating a journal segment in place
// — without a preceding fsync is flagged; a sync in a summarized
// callee credits its caller; closures are neither flagged nor
// credited; a vetted exception under an ignore directive is silent.
package wal

// File is a miniature of the real durable.File surface.
type File struct{}

// Write buffers p.
func (f *File) Write(p []byte) (int, error) { return len(p), nil }

// Sync flushes buffered writes to stable storage.
func (f *File) Sync() error { return nil }

// Close releases the handle.
func (f *File) Close() error { return nil }

// FS is a miniature of the real durable.FS surface.
type FS struct{}

// Create makes a new file.
func (FS) Create(name string) (*File, error) { return &File{}, nil }

// Rename atomically replaces newname with oldname.
func (FS) Rename(oldname, newname string) error { return nil }

// SyncDir flushes a directory's entry table.
func (FS) SyncDir(dir string) error { return nil }

// PublishUnsynced renames freshly written bytes into place without
// syncing them first: a crash can land the new name on a file whose
// content never left the page cache. FLAGGED (at this declaration).
func PublishUnsynced(fs FS, tmp, path string) error {
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("x")); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}

// PublishSynced is the correct tmp → sync → rename → syncdir dance.
// SILENT.
func PublishSynced(fs FS, tmp, path string) error {
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("x")); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(".")
}

// sealActive syncs the active file — the summarized callee.
func sealActive(f *File) error { return f.Sync() }

// RotateViaHelper publishes only after sealing through the helper: the
// sync summary travels the call graph. SILENT.
func RotateViaHelper(fs FS, active *File, tmp, path string) error {
	if err := sealActive(active); err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}

// OpenSegmentUnsynced creates a fresh segment in place (no rename)
// without sealing its predecessor: replay can see the new segment
// while the old one's tail frames are lost. FLAGGED (at this
// declaration).
func OpenSegmentUnsynced(fs FS, name string) (*File, error) {
	return fs.Create(name)
}

// OpenFirstSegment creates the journal's very first segment: there is
// no predecessor to seal, so the occurrence is vetted and suppressed
// (and the directive is consumed, keeping deadignore quiet).
//
//lint:ignore syncdiscipline the first segment has no predecessor to sync
func OpenFirstSegment(fs FS, name string) (*File, error) {
	return fs.Create(name)
}

// PublishAsync renames inside a goroutine closure: when the closure
// runs is unknowable statically, so the pass neither flags nor credits
// it. SILENT.
func PublishAsync(fs FS, tmp, path string, report func(error)) {
	go func() {
		report(fs.Rename(tmp, path))
	}()
}

// SyncData flushes data only — the append hot path's flush, not a seal.
func (f *File) SyncData() error { return nil }

// RotateDataOnly flushes only the predecessor's data before creating
// the next segment: a data-only flush does not seal. FLAGGED (at this
// declaration).
func RotateDataOnly(fs FS, active *File, name string) (*File, error) {
	if err := active.SyncData(); err != nil {
		return nil, err
	}
	return fs.Create(name)
}
