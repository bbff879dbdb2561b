package core

import (
	"trustedcvs/internal/digest"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
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

// Absorb folds one verified transition into the registers (Protocol
// II, step 6). ctr is the counter the server presented with the
// response and last the user it named as the pre-state's author; self
// is this user. The transition runs from old = h(M(D)‖ctr‖last) to
// new = h(M(D′)‖ctr+1‖self), with both roots taken from v, and folds
// as σᵢ ⊕= old ⊕ new, lastᵢ = new. It returns the two tagged states
// for the user's journal. A Verified no verifier made folds nothing:
// the registers are unchanged and both states are zero.
func (r *Registers) Absorb(v vdb.Verified, ctr uint64, last, self sig.UserID) (oldState, newState digest.Digest) {
	if !v.OK() {
		return digest.Zero, digest.Zero
	}
	oldState = TaggedStateHash(v.OldRoot(), ctr, last)
	newState = TaggedStateHash(v.NewRoot(), ctr+1, self)
	r.fold(oldState, newState, ctr+1)
	return oldState, newState
}

// fold is Absorb's algebra on two tagged states: σ ⊕= from ⊕ to, and
// to, at counter c, becomes the user's last state.
func (r *Registers) fold(from, to digest.Digest, c uint64) {
	r.Sigma = r.Sigma.Xor(from).Xor(to)
	r.Last, r.LastCtr, r.GCtr = to, c, c
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
