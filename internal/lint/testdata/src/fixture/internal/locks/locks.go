// Package locks exercises lockorder: a cross-class cycle closed
// interprocedurally through a wrapper method's summary, and two
// instances of one class acquired together, which must stay silent.
package locks

import "sync"

// Journal and Index are two lock classes with no documented order
// between them.
type Journal struct{ mu sync.Mutex }

// Index is the second class of the cycle.
type Index struct{ mu sync.Mutex }

func (j *Journal) lock()   { j.mu.Lock() }
func (j *Journal) unlock() { j.mu.Unlock() }

// AppendBoth holds the journal while updating the index:
// Journal.mu -> Index.mu.
func AppendBoth(j *Journal, ix *Index) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ix.mu.Lock()
	ix.mu.Unlock()
}

// ReindexBoth closes the cycle the other way, reaching the journal
// lock through its wrapper: Index.mu -> Journal.mu via the lock()
// summary.
func ReindexBoth(j *Journal, ix *Index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	j.lock()
	j.unlock()
}

// Shard is one class with many instances.
type Shard struct{ mu sync.Mutex }

// LockAscending acquires two instances of one class in address order;
// same-class edges are exempt.
func LockAscending(a, b *Shard) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
