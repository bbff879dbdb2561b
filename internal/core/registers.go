package core

import (
	"trustedcvs/internal/digest"
	"trustedcvs/internal/sig"
)

// Registers is the constant-size per-user protocol state of Protocols
// II and III (desideratum 5: bounded local state). σ accumulates the
// XOR of every state the user has seen; Last is the most recent state
// the user itself produced; GCtr is the highest counter seen; Ops is
// lctrᵢ.
type Registers struct {
	Sigma   digest.Digest
	Last    digest.Digest
	LastCtr uint64
	GCtr    uint64
	Ops     uint64
}

// Absorb folds one verified transition (oldState → newState) into the
// registers: σᵢ ⊕= old ⊕ new, lastᵢ = new (Protocol II, step 6).
func (r *Registers) Absorb(oldState, newState digest.Digest, newCtr uint64) {
	r.Sigma = r.Sigma.Xor(oldState).Xor(newState)
	r.Last = newState
	r.LastCtr = newCtr
	r.GCtr = newCtr
	r.Ops++
}

// ResetEpoch clears the per-epoch accumulator while keeping Last /
// LastCtr (the chain continues across the epoch boundary) — Protocol
// III's per-epoch bookkeeping.
func (r *Registers) ResetEpoch() {
	r.Sigma = digest.Zero
}

// SyncReportII is what each user contributes to a Protocol II
// synchronization: its σ and last registers. (Protocol I's reports are
// just counters; see SyncReportI.)
type SyncReportII struct {
	User  sig.UserID
	Sigma digest.Digest
	Last  digest.Digest
}

// CheckSyncII runs the Protocol II synchronization check: the XOR of
// all σₖ must equal initialState ⊕ lastᵢ for some user i. By Lemma 4.1
// this holds iff the tagged states the users saw form a single
// directed path out of the initial state — i.e. the server ran one
// linear history with no forks, replays, or fabricated states.
//
// It returns the index into reports of the user whose lastᵢ closes the
// chain, or -1 if the check fails.
func CheckSyncII(initialState digest.Digest, reports []SyncReportII) int {
	var acc digest.Digest
	for _, r := range reports {
		acc = acc.Xor(r.Sigma)
	}
	want := initialState.Xor(acc) // lastᵢ must equal initial ⊕ ⊕σₖ
	for i, r := range reports {
		if r.Last == want {
			return i
		}
	}
	return -1
}

// SyncReportI is a user's contribution to a Protocol I
// synchronization: its local operation count (and gctr, which the
// check compares against the total).
type SyncReportI struct {
	User sig.UserID
	LCtr uint64
	GCtr uint64
}

// CheckSyncI runs the Protocol I synchronization check: some user's
// gctrᵢ must equal Σₖ lctrₖ. Every state signature binds the counter,
// so each legitimate ctr increment is matched by exactly one lctr
// increment on a single linear history; a fork or replay makes every
// chain shorter than the total. It returns the index of a satisfying
// user or -1.
func CheckSyncI(reports []SyncReportI) int {
	var total uint64
	for _, r := range reports {
		total += r.LCtr
	}
	for i, r := range reports {
		if r.GCtr == total {
			return i
		}
	}
	return -1
}
