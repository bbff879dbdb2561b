// Package adversary implements malicious-server behaviors: wrappers
// around an honest protocol server that deviate from the trusted
// execution in the specific ways the paper analyzes. Every behavior
// records the global operation index at which it first deviated, so
// experiments can measure detection delay exactly.
//
// Behaviors:
//
//   - Fork (Figure 1): maintain two diverged copies of the repository
//     and serve each user group its own copy — the partition attack
//     behind Theorem 3.1.
//   - ReplayStale: freeze one user on a snapshot (single-user
//     availability violation: the user never sees others' updates).
//   - DropUpdate: acknowledge a user's update with a fully valid proof
//     but discard its effect for everyone else (served from a
//     throwaway fork).
//   - TamperAnswer: return a corrupted answer for one operation.
//   - TamperState: silently modify repository data without any user
//     operation (single-user integrity violation).
//   - CounterReplay: show the same counter value twice.
//   - StallEpochs / WithholdBackup: Protocol III-specific attacks on
//     the epoch machinery.
package adversary

import (
	"fmt"
	"slices"
	"sync"

	"trustedcvs/internal/core"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

// Kind selects a malicious behavior.
type Kind int

const (
	// Honest performs no deviation (control group).
	Honest Kind = iota
	// Fork mounts the Figure 1 partition attack at TriggerOp.
	Fork
	// ReplayStale freezes Target on a snapshot taken at TriggerOp.
	ReplayStale
	// DropUpdate discards the effect of the TriggerOp-th operation
	// while proving it to its issuer.
	DropUpdate
	// TamperAnswer corrupts the answer of the TriggerOp-th operation.
	TamperAnswer
	// TamperState silently rewrites Key just before the TriggerOp-th
	// operation, without advancing any protocol state.
	TamperState
	// CounterReplay serves the TriggerOp-th operation from the
	// pre-state of the previous operation, repeating a counter.
	CounterReplay
	// StallEpochs suppresses all epoch advancement (Protocol III).
	StallEpochs
	// WithholdBackup removes Target's backups from every
	// GetBackups response (Protocol III).
	WithholdBackup
)

// names is the one spelling of every behavior: String and ParseKind
// both read it, and so does every front end through them.
var names = [...]string{
	Honest:         "honest",
	Fork:           "fork",
	ReplayStale:    "replay-stale",
	DropUpdate:     "drop-update",
	TamperAnswer:   "tamper-answer",
	TamperState:    "tamper-state",
	CounterReplay:  "counter-replay",
	StallEpochs:    "stall-epochs",
	WithholdBackup: "withhold-backup",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Names returns a copy of the name of every behavior, in Kind order,
// for a front end's help text.
func Names() []string { return slices.Clone(names[:]) }

// ParseKind is the inverse of Kind.String. An unknown name is refused
// with an *UnknownBehaviorError.
func ParseKind(name string) (Kind, error) {
	for k, n := range names {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, &UnknownBehaviorError{Behavior: name}
}

// UnknownBehaviorError reports a behavior name ParseKind does not know.
type UnknownBehaviorError struct{ Behavior string }

func (e *UnknownBehaviorError) Error() string {
	return fmt.Sprintf("unknown malicious behavior %q", e.Behavior)
}

// Config parameterizes a behavior.
type Config struct {
	Kind Kind
	// TriggerOp is the 1-based global operation index at which the
	// behavior activates (0 = from the first operation). For Fork, the
	// forked snapshot captures the state just BEFORE this operation.
	TriggerOp uint64
	// GroupB (Fork) is the set of users served from the forked copy.
	GroupB map[sig.UserID]bool
	// Target (ReplayStale, WithholdBackup) names the victim.
	Target sig.UserID
	// Key/Value (TamperState) is the record the server rewrites; an
	// empty Key plants "planted-by-server" = "evil".
	Key   string
	Value []byte
}

// Server wraps an honest protocol server with a malicious behavior.
// It implements server.Server.
//
// Unlike the honest servers it serializes operations completely: the
// behaviors hinge on exact global operation indices (TriggerOp,
// DeviatedAtOp), which only mean something under a total order. The
// adversary is a measurement harness, never a throughput path.
type Server struct {
	cfg  Config
	main server.Server

	mu   sync.Mutex
	fork server.Server // lazily created fork (Fork, ReplayStale, CounterReplay)

	ops        uint64 // operations seen (global, across both branches)
	deviatedAt uint64 // 0 = not yet
	dropped    bool   // DropUpdate has discarded its target op
	// Divergence tracking for fork-style behaviors: a run only
	// *deviates* (Definition 2.1) once operations have been served
	// from BOTH branches after the snapshot — until then the fork
	// branch is a plain extension of the shared history and every
	// response remains serializable.
	forkServed bool
	mainServed bool
}

// Wrap attaches a behavior to an honest server.
func Wrap(honest server.Server, cfg Config) *Server {
	if cfg.Kind == TamperState && cfg.Key == "" {
		cfg.Key, cfg.Value = "planted-by-server", []byte("evil")
	}
	return &Server{cfg: cfg, main: honest}
}

// DeviatedAtOp returns the 1-based global operation index at which the
// server first deviated from the trusted execution, or 0 if it has
// behaved so far. Experiments measure detection delay from this point.
func (s *Server) DeviatedAtOp() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deviatedAt
}

func (s *Server) markDeviation() {
	if s.deviatedAt == 0 {
		s.deviatedAt = s.ops
	}
}

// noteServe records which branch served the current operation and
// marks the deviation once both branches have served since the
// snapshot.
func (s *Server) noteServe(onFork bool) {
	if onFork {
		s.forkServed = true
	} else {
		s.mainServed = true
	}
	if s.forkServed && s.mainServed {
		s.markDeviation()
	}
}

// Protocol implements server.Server.
func (s *Server) Protocol() server.Protocol { return s.main.Protocol() }

// DB implements server.Server.
func (s *Server) DB() *vdb.DB { return s.main.DB() }

// Epoch implements server.Server.
func (s *Server) Epoch() uint64 { return s.main.Epoch() }

// AdvanceEpoch implements server.Server. StallEpochs swallows it.
func (s *Server) AdvanceEpoch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Kind == StallEpochs {
		if s.deviatedAt == 0 {
			s.deviatedAt = s.ops + 1 // deviation is visible from the next op
		}
		return
	}
	s.main.AdvanceEpoch()
	if s.fork != nil {
		s.fork.AdvanceEpoch()
	}
}

// Fork implements server.Server (forking a malicious server is not
// meaningful; it forks the honest core).
func (s *Server) Fork() server.Server { return s.main.Fork() }

// triggered reports whether the behavior is active for the operation
// with 1-based index op.
func (s *Server) triggered(op uint64) bool {
	return op >= s.cfg.TriggerOp
}

// HandleOp implements server.Server with the configured deviation.
func (s *Server) HandleOp(req *core.OpRequest) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	switch s.cfg.Kind {
	case Fork:
		// The snapshot is taken immediately BEFORE the TriggerOp-th
		// operation is applied, so in the Figure 1 scenario the forked
		// copy excludes t1: group B never learns of it.
		if s.triggered(s.ops) && s.fork == nil {
			s.fork = s.main.Fork()
		}
		if s.fork != nil && s.cfg.GroupB[req.User] {
			s.noteServe(true)
			return s.fork.HandleOp(req)
		}
		if s.fork != nil {
			s.noteServe(false)
		}
		return s.main.HandleOp(req)

	case ReplayStale:
		if s.triggered(s.ops) && req.User == s.cfg.Target {
			if s.fork == nil {
				s.fork = s.main.Fork()
			}
			s.noteServe(true)
			return s.fork.HandleOp(req)
		}
		if s.fork != nil {
			s.noteServe(false)
		}
		return s.main.HandleOp(req)

	case DropUpdate:
		if s.ops == s.cfg.TriggerOp {
			// Prove the op on a throwaway fork; the real state never
			// changes. (Kept in s.fork so a Protocol I ack can land.)
			// This response alone is still consistent with a trusted
			// serialization in which the op simply happened — the run
			// first *deviates* (Definition 2.1) at the next response
			// served from the state that excludes it.
			s.fork = s.main.Fork()
			s.dropped = true
			return s.fork.HandleOp(req)
		}
		if s.dropped {
			s.markDeviation()
		}
		return s.main.HandleOp(req)

	case TamperAnswer:
		resp, err := s.main.HandleOp(req)
		if err != nil {
			return nil, err
		}
		if s.ops == s.cfg.TriggerOp {
			s.markDeviation()
			corruptAnswer(resp)
		}
		return resp, nil

	case TamperState:
		if s.ops == s.cfg.TriggerOp {
			// Rewrite a record with no protocol bookkeeping at all.
			s.markDeviation()
			if _, err := s.main.DB().ApplyPlain(&vdb.WriteOp{Puts: []vdb.KV{{Key: s.cfg.Key, Val: s.cfg.Value}}}); err != nil {
				return nil, err
			}
		}
		return s.main.HandleOp(req)

	case CounterReplay:
		if s.ops == s.cfg.TriggerOp && s.fork != nil {
			s.markDeviation()
			return s.fork.HandleOp(req)
		}
		// Keep a one-op-old snapshot around for the trigger.
		s.fork = s.main.Fork()
		return s.main.HandleOp(req)

	default:
		return s.main.HandleOp(req)
	}
}

// HandleAck implements server.Server.
func (s *Server) HandleAck(ack *core.AckRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Route the ack to whichever branch is mid-operation; for the
	// honest and most adversarial cases that is main. Fork-style
	// behaviors must ack on the branch that produced the response: we
	// try main first and fall back to the fork.
	if err := s.main.HandleAck(ack); err == nil {
		return nil
	} else if s.fork == nil {
		return err
	}
	return s.fork.HandleAck(ack)
}

// HandleGetBackups implements server.Server.
func (s *Server) HandleGetBackups(req *core.GetBackupsRequest) (*core.BackupsResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.main
	// Under a fork, each user sees its own branch's stored backups.
	if s.fork != nil && (s.cfg.Kind == Fork && s.cfg.GroupB[req.User] ||
		s.cfg.Kind == ReplayStale && req.User == s.cfg.Target) {
		src = s.fork
	}
	resp, err := src.HandleGetBackups(req)
	if err != nil {
		return nil, err
	}
	if s.cfg.Kind == WithholdBackup {
		kept := resp.Backups[:0:0]
		for _, b := range resp.Backups {
			if b.User != s.cfg.Target {
				kept = append(kept, b)
			}
		}
		if len(kept) != len(resp.Backups) {
			s.markDeviation()
		}
		resp.Backups = kept
	}
	return resp, nil
}

// corruptAnswer substitutes a semantically different (but perfectly
// well-formed) answer — the server lying about data. Corrupting raw
// bytes would be weaker: most flips no longer decode, and an answer the
// client cannot read misleads nobody.
func corruptAnswer(resp any) {
	forged, err := vdb.EncodeAnswer(vdb.ReadAnswer{
		Results: []vdb.ReadResult{{Key: "forged-by-server", Found: true, Val: []byte("evil")}},
	})
	if err != nil {
		panic("adversary: encode forged answer: " + err.Error())
	}
	switch r := resp.(type) {
	case *core.OpResponseI:
		r.Answer = forged
	case *core.OpResponseII:
		r.Answer = forged
	}
}
