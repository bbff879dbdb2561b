// Package vdb exercises lockscope: gob work between Lock and a
// deferred Unlock is flagged; the narrowed variant is not.
package vdb

import (
	"bytes"
	"encoding/gob" //lint:ignore hashdiscipline fixture: gob encoding is the slow call lockscope is exercised on
	"sync"
)

// DB is a miniature of the real vdb.DB locking shape.
type DB struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// EncodeUnderLock re-creates the regression the pass guards against:
// the codec runs inside the serial section.
func (db *DB) EncodeUnderLock(v any) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return gob.NewEncoder(&db.buf).Encode(v)
}

// EncodeOutsideLock narrows the critical section correctly.
func (db *DB) EncodeOutsideLock(v any) error {
	db.mu.Lock()
	db.buf.Reset()
	db.mu.Unlock()
	return gob.NewEncoder(&db.buf).Encode(v)
}
