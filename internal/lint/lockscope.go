package lint

// passLockScope guards the narrow serial sections: inside
// internal/vdb, internal/core/..., internal/transport and
// internal/audit, no call from the configured slow-call set (gob
// encode/decode, Ed25519 sign/verify, net.Conn reads/writes, os.File
// I/O, and the module's own wrappers around them) may be made while a
// mutex is held. One blocking call re-inserted under the vdb.DB or a
// protocol mutex serializes every waiter behind it without failing any
// test — exactly the regression a compiler cannot see.
//
// The held set is the lock graph's (lockgraph.go): a section opens at
// a Lock, RLock or TryLock, or at a call to a module function that
// returns holding a lock (a lock() wrapper), and closes at the
// matching release; a deferred release keeps it open to the end of
// the function. Function literals are their own roots (goroutines and
// callbacks run on their own schedule), and calls made *indirectly*
// under the lock (via a helper) are only caught if the helper itself
// is in the slow-call set — the set therefore includes the module's
// own codec/signing wrappers.
var passLockScope = &Pass{
	Name: nameLockScope,
	Doc:  "slow calls (codec, crypto, network, disk) inside mutex critical sections of the hot-path packages",
	Run:  runLockScope,
}

// internal/audit is in scope because the async auditor's whole value
// is that verification (hashing, VO replay, signature checks) happens
// off the hot path: one slow call slipped under the queue mutex makes
// Submit block behind the drain and silently reverts E17's win.
var lockscopeScope = []string{"internal/vdb", "internal/core", "internal/transport", "internal/audit"}

func runLockScope(m *Module) []Diag {
	targets := m.targets()
	var out []Diag
	for _, hc := range m.lockGraph().held {
		full := hc.fn.FullName()
		if !targets[hc.pkg] || !underAny(hc.pkg.Rel, lockscopeScope...) || !m.slowCalls[full] {
			continue
		}
		out = append(out, m.diagf(nameLockScope, hc.call.Pos(),
			"slow call %s inside the critical section of %s (locked at line %d): keep the serial section narrow — move it after Unlock or into a Finish-style stage",
			full, hc.lock.cls, m.Fset.Position(hc.lock.pos).Line))
	}
	return out
}
