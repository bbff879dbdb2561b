// Package vdb exercises lockscope: gob work inside a section, opened
// directly or by a lock() wrapper, is flagged; the narrowed one is not.
package vdb

import (
	"bytes"
	"encoding/gob"
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

func (db *DB) lock()   { db.mu.Lock() }
func (db *DB) unlock() { db.mu.Unlock() }

// EncodeUnderWrapper takes the lock through a module method that
// returns holding it: the section is as critical as a direct Lock.
func (db *DB) EncodeUnderWrapper(v any) error {
	db.lock()
	defer db.unlock()
	return gob.NewEncoder(&db.buf).Encode(v)
}
