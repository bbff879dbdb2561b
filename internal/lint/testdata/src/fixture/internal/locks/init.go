package locks

import "sync"

// registry's lock is taken by two init functions, which share one full
// name (locks.init): the call graph orders them by source position, so
// both graphs render the same on every load.
type registry struct{ mu sync.Mutex }

var reg registry

func init() {
	reg.mu.Lock()
	LockAscending(&Shard{}, &Shard{})
	reg.mu.Unlock()
}

func init() {
	reg.mu.Lock()
	AppendBoth(&Journal{}, &Index{})
	reg.mu.Unlock()
}
