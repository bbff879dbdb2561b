// shard.go exercises lockscope's wrapper recognition: the forest's
// critical sections are entered through lock()/unlock() methods and
// lockAll/unlockAll-style helpers rather than bare sync.Mutex calls,
// and slow calls inside them must still be flagged. Non-boundary
// names like locked() must stay invisible to the pass.
package vdb

import (
	"bytes"
	"encoding/gob" //lint:ignore hashdiscipline fixture: gob encoding is the slow call lockscope is exercised on
	"sync"
)

// Shard is a miniature of the real vdb shard: an instrumented mutex
// hidden behind lock/unlock wrapper methods.
type Shard struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *Shard) lock()   { s.mu.Lock() }
func (s *Shard) unlock() { s.mu.Unlock() }

// locked is a predicate, not an acquisition: "locked" does not end
// the "lock" prefix at a camel boundary.
func (s *Shard) locked() bool { return true }

// Forest mirrors the forest-wide ordered cut.
type Forest struct {
	shards []Shard
}

func (f *Forest) lockAll() {
	for i := range f.shards {
		f.shards[i].lock()
	}
}

func (f *Forest) unlockAll() {
	for i := len(f.shards) - 1; i >= 0; i-- {
		f.shards[i].unlock()
	}
}

// EncodeUnderShardLock re-creates the regression behind a wrapper:
// the codec runs inside the shard's serial section.
func (s *Shard) EncodeUnderShardLock(v any) error {
	s.lock()
	defer s.unlock()
	return gob.NewEncoder(&s.buf).Encode(v)
}

// EncodeOutsideShardLock narrows the section correctly.
func (s *Shard) EncodeOutsideShardLock(v any) error {
	s.lock()
	s.buf.Reset()
	s.unlock()
	return gob.NewEncoder(&s.buf).Encode(v)
}

// EncodeUnderForestLock runs the codec inside a forest-wide cut taken
// through the lockAll wrapper.
func (f *Forest) EncodeUnderForestLock(v any) error {
	f.lockAll()
	defer f.unlockAll()
	return gob.NewEncoder(&f.shards[0].buf).Encode(v)
}

// EncodeAfterLocked calls a lock-prefixed predicate that is not an
// acquisition; the following codec call must stay silent.
func (s *Shard) EncodeAfterLocked(v any) error {
	if s.locked() {
		s.buf.Reset()
	}
	return gob.NewEncoder(&s.buf).Encode(v)
}
