// Package core implements the protocol framework shared by Protocols
// I, II and III of the Trusted CVS paper: database-state hashing, the
// XOR state registers (σᵢ, lastᵢ) of Section 4.3, typed detection
// errors, and the wire message types the protocols exchange.
//
// The protocol implementations themselves live in the subpackages
// proto1, proto2 and proto3; they are pure state machines, driven
// either by the deterministic round simulator (internal/sim) or by the
// live transport driver.
package core

import (
	"trustedcvs/internal/digest"
	"trustedcvs/internal/sig"
)

// StateHash computes h(M(D) ‖ ctr): the untagged database state bound
// by Protocol I's signatures.
func StateHash(root digest.Digest, ctr uint64) digest.Digest {
	return digest.NewHasher(digest.DomainState).Digest(root).Uint64(ctr).Sum()
}

// TaggedStateHash computes h(M(D) ‖ ctr ‖ user): the user-tagged state
// of Protocols II and III. Tagging each state with the user that
// performed the transition into it is what forces in-degree ≤ 1 in the
// state graph (Lemma 4.1, property P2) and defeats the replay of
// Figure 3.
func TaggedStateHash(root digest.Digest, ctr uint64, user sig.UserID) digest.Digest {
	return digest.NewHasher(digest.DomainTaggedState).Digest(root).Uint64(ctr).Uint64(uint64(user)).Sum()
}

// GenesisState is the distinguished initial node of the state graph:
// the state (D₀, ctr=0) tagged with the reserved genesis ID. The paper
// writes the constant as h(M(D₀)‖1); see DESIGN.md ("Errata") for why
// we pin counter 0 with a genesis tag instead — any agreed-upon
// constant works, and this one is consistent with Figure 3's (D₀, 0).
func GenesisState(initialRoot digest.Digest) digest.Digest {
	return TaggedStateHash(initialRoot, 0, sig.GenesisID)
}

// EpochSummaryHash binds a Protocol III epoch backup for signing:
// (user, epoch, σ, last, lastCtr).
func EpochSummaryHash(user sig.UserID, epoch uint64, sigma, last digest.Digest, lastCtr uint64) digest.Digest {
	return digest.NewHasher(digest.DomainEpoch).
		Uint64(uint64(user)).
		Uint64(epoch).
		Digest(sigma).
		Digest(last).
		Uint64(lastCtr).
		Sum()
}
