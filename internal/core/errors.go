package core

import (
	"errors"
	"fmt"

	"trustedcvs/internal/sig"
)

// Format bytes that open a persisted user state (MarshalState of
// proto1 and proto2). Like every stored format byte (DESIGN.md "State
// files") they lie in 0x80–0xF7, where no gob stream — what earlier
// binaries wrote — can start. 0x89 is retired: it opened the Protocol
// III user state, which nothing restores any more, and no later format
// may reuse it.
const (
	StateFormatI  = 0x87
	StateFormatII = 0x88
)

// ErrStateFormat is returned (wrapped) for a persisted user state that
// does not open with its protocol's format byte: written by an older
// binary, or for another protocol. It is refused, never converted —
// wrongly restored registers would convict an honest server; finish
// the session with the binary that wrote the file.
var ErrStateFormat = errors.New("core: user state is not in this binary's format")

// DetectionClass identifies which protocol check caught the server
// deviating. Experiments assert on the class to verify that the
// *intended* mechanism fired, not just that something errored.
type DetectionClass int

const (
	// BadVO: the verification object was malformed, did not match the
	// trusted root, or did not cover the replayed operation.
	BadVO DetectionClass = iota + 1
	// BadAnswer: the server's claimed answer differs from the verified
	// replay — a direct integrity violation.
	BadAnswer
	// BadSignature: a state signature presented by the server was not
	// a legitimate signature by the named user (Protocol I step 4).
	BadSignature
	// CounterReplay: the server presented a counter below the one this
	// user has already seen (Protocol II step 4; see DESIGN.md errata
	// on the strict inequality).
	CounterReplay
	// SyncMismatch: the synchronization check failed — no user's
	// registers close the state chain (Protocols I and II).
	SyncMismatch
	// EpochViolation: Protocol III epoch bookkeeping failed — a backup
	// is missing, carries a bad signature, or the server's epoch
	// announcements contradict the user's local clock.
	EpochViolation
	// ProtocolViolation: the server broke the message protocol itself
	// (wrong response type, missing fields, out-of-order flow).
	ProtocolViolation
	// WitnessDivergence: the root a client verified locally contradicts
	// the signed commitment the witness quorum holds for the same
	// operation counter — the server showed different histories to the
	// client and to its witnesses.
	WitnessDivergence
)

func (c DetectionClass) String() string {
	switch c {
	case BadVO:
		return "bad-verification-object"
	case BadAnswer:
		return "answer-mismatch"
	case BadSignature:
		return "bad-signature"
	case CounterReplay:
		return "counter-replay"
	case SyncMismatch:
		return "sync-mismatch"
	case EpochViolation:
		return "epoch-violation"
	case ProtocolViolation:
		return "protocol-violation"
	case WitnessDivergence:
		return "witness-divergence"
	default:
		return fmt.Sprintf("detection-class(%d)", int(c))
	}
}

// DetectionError reports that a user detected server deviation. Per
// Section 2.2.1 the detecting user "terminates and reports an error";
// drivers treat a DetectionError as terminal for the whole run.
type DetectionError struct {
	Class DetectionClass
	User  sig.UserID // the detecting user
	LCtr  uint64     // the user's local operation count at detection
	Cause error      // underlying failure, if any
}

// Error implements error.
func (e *DetectionError) Error() string {
	msg := fmt.Sprintf("deviation detected by %v after %d local ops: %s", e.User, e.LCtr, e.Class)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the cause.
func (e *DetectionError) Unwrap() error { return e.Cause }

// Detect constructs a DetectionError.
func Detect(class DetectionClass, user sig.UserID, lctr uint64, cause error) *DetectionError {
	return &DetectionError{Class: class, User: user, LCtr: lctr, Cause: cause}
}

// AsDetection extracts a DetectionError from an error chain.
func AsDetection(err error) (*DetectionError, bool) {
	var de *DetectionError
	if errors.As(err, &de) {
		return de, true
	}
	return nil, false
}
