package audit

import (
	"errors"
	"fmt"
)

// ErrClosed is returned by Submit, WaitAdmissible, and the wait
// helpers after Stop: the auditor is shutting down and accepts no more
// work. It is an availability outcome, never a detection.
var ErrClosed = errors.New("audit: auditor closed")

// EpochAuditFailure is the typed terminal error of epoch-audit mode: a
// deviation surfaced asynchronously, after the operation's answer was
// already returned optimistically. It names the epoch in which the
// deviation surfaced and — when the failure came from verifying a
// specific record rather than from an epoch closure or witness check —
// the first bad global counter, so forensics can start at the exact
// operation the server first lied about.
//
// Cause is the underlying *core.DetectionError (reachable through
// errors.As / core.AsDetection), so every detection class the
// synchronous path raises — BadVO, BadAnswer, CounterReplay,
// SyncMismatch, WitnessDivergence — keeps its type
// under the asynchronous auditor.
type EpochAuditFailure struct {
	// Epoch is the 0-based epoch index in which the deviation surfaced.
	Epoch uint64
	// Ctr is the first bad global counter (0 when the failure is an
	// epoch-level check — register closure or witness divergence — that
	// convicts the window as a whole rather than one record).
	Ctr uint64
	// Cause is the underlying detection.
	Cause error
}

// Error implements error.
func (e *EpochAuditFailure) Error() string {
	if e.Ctr != 0 {
		return fmt.Sprintf("audit: epoch %d failed at counter %d: %v", e.Epoch, e.Ctr, e.Cause)
	}
	return fmt.Sprintf("audit: epoch %d failed: %v", e.Epoch, e.Cause)
}

// Unwrap exposes the underlying detection to errors.Is/As.
func (e *EpochAuditFailure) Unwrap() error { return e.Cause }
