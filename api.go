package trustedcvs

import (
	"trustedcvs/internal/adversary"
	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/diff"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/workspace"
)

// Core identity and data types, re-exported for the public API.
type (
	// UserID identifies a protocol participant.
	UserID = sig.UserID
	// Digest is a 32-byte SHA-256 commitment.
	Digest = digest.Digest
	// Op is a deterministic, verifiable database transaction. The CVS
	// operations and the raw key-value operations below implement it.
	Op = vdb.Op
	// KV is a key-value pair for raw WriteOps.
	KV = vdb.KV
	// ReadOp / WriteOp / RangeOp are the raw key-value transactions
	// of the paper's "database of items" model (the outsourcing
	// scenario uses them directly).
	ReadOp  = vdb.ReadOp
	WriteOp = vdb.WriteOp
	RangeOp = vdb.RangeOp
	// CASOp is a verified compare-and-swap: the conditional runs
	// inside the replayed transaction, so the untrusted server cannot
	// lie about whether the swap happened.
	CASOp = vdb.CASOp
	// ReadAnswer / WriteAnswer / RangeAnswer / CASAnswer are their
	// answers.
	ReadAnswer  = vdb.ReadAnswer
	WriteAnswer = vdb.WriteAnswer
	RangeAnswer = vdb.RangeAnswer
	CASAnswer   = vdb.CASAnswer

	// DetectionError reports a proven server deviation: which check
	// fired, which user detected it, after how many local operations.
	DetectionError = core.DetectionError
	// DetectionClass enumerates the protocol checks.
	DetectionClass = core.DetectionClass

	// FileStatus, RevisionRecord, CommitResult and RemoveResult are
	// the CVS layer's authenticated answers.
	FileStatus     = cvs.FileStatus
	RevisionRecord = cvs.RevisionRecord
	CommitResult   = cvs.CommitResult
	RemoveResult   = cvs.RemoveResult

	// Patch is a verified line diff between two revisions
	// (Repo.Diff).
	Patch = diff.Patch

	// LineOrigin is one line's blame attribution (Repo.Annotate).
	LineOrigin = cvs.LineOrigin

	// UpdateResult is a `cvs update` three-way merge outcome
	// (Repo.Update).
	UpdateResult = cvs.UpdateResult

	// ForensicsReport localizes a detected fault to the forged
	// operation slot and the diverged branches (Cluster.Forensics;
	// requires ClusterConfig.JournalCap).
	ForensicsReport = forensics.Report

	// Evidence is a self-authenticating proof of server equivocation:
	// two signed commitments that cannot both belong to one honest
	// history (Cluster.WitnessEvidence; requires
	// ClusterConfig.Witnesses).
	Evidence = forensics.Evidence

	// Workspace is a verified working copy (Repo.Workspace): a local
	// directory with tracked base revisions, status, three-way-merge
	// update, and atomic commits.
	Workspace = workspace.Workspace
	// WorkspaceFileState and WorkspaceUpdateReport are its reports.
	WorkspaceFileState    = workspace.FileState
	WorkspaceUpdateReport = workspace.UpdateReport
)

// HasConflictMarkers reports whether merged content still contains
// unresolved conflict markers.
func HasConflictMarkers(doc string) bool { return diff.HasConflictMarkers(doc) }

// Protocol selects one of the paper's three protocols.
type Protocol = server.Protocol

// The three protocols of Section 4.
const (
	ProtocolI   = server.P1
	ProtocolII  = server.P2
	ProtocolIII = server.P3
)

// Detection classes (see core documentation for details).
const (
	BadVO             = core.BadVO
	BadAnswer         = core.BadAnswer
	BadSignature      = core.BadSignature
	CounterReplay     = core.CounterReplay
	SyncMismatch      = core.SyncMismatch
	EpochViolation    = core.EpochViolation
	ProtocolViolation = core.ProtocolViolation
	WitnessDivergence = core.WitnessDivergence
)

// AsDetection extracts a DetectionError from an error chain, reporting
// whether the error proves server deviation.
func AsDetection(err error) (*DetectionError, bool) { return core.AsDetection(err) }

// ErrConflict is returned by Repo.Commit when a CVS up-to-date check
// failed (another user committed first); it is an ordinary CVS
// conflict, not a server deviation.
var ErrConflict = cvs.ErrConflict

// ErrNoFile is returned when checking out a path that does not exist.
var ErrNoFile = cvs.ErrNoFile

// Malice configures a deliberately misbehaving server for demos,
// tests, and the attack experiments. The zero value is honest.
type Malice struct {
	// Behavior is one of: "", "honest", "fork", "replay-stale",
	// "drop-update", "tamper-answer", "tamper-state", "counter-replay",
	// "stall-epochs", "withhold-backup".
	Behavior string
	// TriggerOp is the 1-based operation index at which the behavior
	// activates.
	TriggerOp uint64
	// GroupB (fork) is served from the forked history.
	GroupB []UserID
	// Target is the victim of replay-stale / withhold-backup.
	Target UserID
}

func (m Malice) config() (*adversary.Config, error) {
	if m.Behavior == "" {
		return nil, nil
	}
	kind, err := adversary.ParseKind(m.Behavior)
	if err != nil || kind == adversary.Honest {
		return nil, err
	}
	cfg := &adversary.Config{Kind: kind, TriggerOp: m.TriggerOp, Target: m.Target}
	if len(m.GroupB) > 0 {
		cfg.GroupB = make(map[UserID]bool, len(m.GroupB))
		for _, u := range m.GroupB {
			cfg.GroupB[u] = true
		}
	}
	return cfg, nil
}

// UnknownBehaviorError reports an unrecognized Malice.Behavior; the
// tcvs-server -behavior flag refuses an unknown name with it too.
type UnknownBehaviorError = adversary.UnknownBehaviorError
