package sim

import (
	"bytes"

	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

// exchange is one recorded request/response pair: the operation a user
// issued and the answer bytes the server returned for it (before any
// client-side verification).
type exchange struct {
	user sig.UserID
	op   vdb.Op
	ans  []byte
}

// oracle computes the ground-truth deviation point per Definition 2.1:
// it replays every recorded operation, in arrival order, on a trusted
// database, and reports the 1-based index of the first response that
// differs from the trusted system's. 0 means the observed responses
// are consistent with a trusted execution.
//
// The oracle exists to validate the adversary's self-reported
// DeviatedAtOp and the protocols' detection claims against the formal
// definition, independent of both.
//
// Two deliberate limitations make the oracle conservative:
//
//   - It checks the arrival-order serialization only, not every
//     possible trusted serialization, so it reports a lower bound on
//     "no trusted run matches".
//   - It sees only answers, not protocol metadata. The protocols are
//     strictly STRONGER: a server that drops a read-only operation or
//     freezes a user on a still-fresh snapshot reuses counter slots —
//     which Protocols I/II flag at the next sync — possibly before any
//     answer observably contradicts the trusted order. Early detection
//     of a fork that has not yet "bitten" is a feature (it will).
//
// The reverse (oracle flags a deviation, protocol silent beyond its
// k/epoch bound) can never happen; the tests pin both directions.
func oracle(order int, exchanges []exchange) uint64 {
	trusted := vdb.New(order)
	for i, ex := range exchanges {
		want, err := trusted.ApplyPlain(ex.op)
		if err != nil {
			// The trusted system rejects the op outright; a server
			// that answered it at all deviated.
			return uint64(i + 1)
		}
		if !bytes.Equal(ex.ans, want) {
			return uint64(i + 1)
		}
	}
	return 0
}
