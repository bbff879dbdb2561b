// Package server unifies the three protocol servers behind one
// interface so that the adversary wrappers (internal/adversary), the
// round simulator (internal/sim), and the TCP server binary can treat
// them uniformly.
package server

import (
	"errors"
	"fmt"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/vdb"
)

// Protocol identifies which of the paper's protocols a server speaks.
type Protocol int

const (
	// P1 is Protocol I (signed states, 3 messages/op, sync every k ops).
	P1 Protocol = iota + 1
	// P2 is Protocol II (XOR registers, 2 messages/op, sync every k ops).
	P2
	// P3 is Protocol III (epochs, no external communication).
	P3
)

func (p Protocol) String() string {
	switch p {
	case P1:
		return "protocol-I"
	case P2:
		return "protocol-II"
	case P3:
		return "protocol-III"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// ParseProtocol converts a CLI flag value ("1", "2", "3", "I", ...).
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "1", "I", "i", "protocol-I":
		return P1, nil
	case "2", "II", "ii", "protocol-II":
		return P2, nil
	case "3", "III", "iii", "protocol-III":
		return P3, nil
	}
	return 0, fmt.Errorf("server: unknown protocol %q", s)
}

// ErrUnsupported is returned for messages a protocol does not use
// (e.g. acks under Protocol II).
var ErrUnsupported = errors.New("server: message not supported by this protocol")

// Server is the protocol-agnostic server surface. HandleOp returns
// *core.OpResponseI under Protocol I and *core.OpResponseII under
// Protocols II/III.
//
// Implementations are safe for concurrent use: the honest servers
// pipeline HandleOp (narrow ordered section, post-lock VO/encoding —
// see DESIGN.md "Concurrency model"), so transports may invoke them
// from many connections at once.
type Server interface {
	Protocol() Protocol
	HandleOp(req *core.OpRequest) (any, error)
	HandleAck(ack *core.AckRequest) error
	HandleGetBackups(req *core.GetBackupsRequest) (*core.BackupsResponse, error)
	AdvanceEpoch()
	Epoch() uint64
	DB() *vdb.DB
	Fork() Server
}

// NewP1 wraps a Protocol I server.
func NewP1(db *vdb.DB, init proto1.InitState) Server {
	return &p1{inner: proto1.NewServer(db, init)}
}

// NewP2 wraps a Protocol II server.
func NewP2(db *vdb.DB) Server { return &p2{inner: proto2.NewServer(db)} }

// NewP3 wraps a Protocol III server.
func NewP3(db *vdb.DB) Server { return &p3{inner: proto3.NewServer(db)} }

// WithOpHook decorates a server so that after each successfully
// applied operation, after is invoked with the database head. This is
// how the witness publisher observes commit cadence without this
// package importing it (witness imports server for checkpoints).
//
// Under the pipelined hot path the head read here may already include
// a later concurrent op; that is fine for commitment purposes — Head
// reads the (ctr, root) pair atomically, so whatever pair the hook
// sees is a real head of the history.
func WithOpHook(s Server, after func(ctr uint64, root digest.Digest)) Server {
	return &hooked{Server: s, after: after}
}

type hooked struct {
	Server
	after func(uint64, digest.Digest)
}

func (h *hooked) HandleOp(req *core.OpRequest) (any, error) {
	//lint:ignore verifyflow the server applies client ops to its own UNtrusted store by design; integrity is enforced client-side by VO verification against pinned registers (AUDIT.md "server trusted with nothing")
	resp, err := h.Server.HandleOp(req)
	if err == nil {
		h.after(h.Server.DB().Head())
	}
	return resp, err
}

// Fork keeps the hook on the fork: a forked (malicious) server that
// keeps committing is exactly the equivocation the witnesses convict.
func (h *hooked) Fork() Server { return &hooked{Server: h.Server.Fork(), after: h.after} }

// unhook strips op-hook and op-journal decoration for code
// (checkpointing) that needs the concrete protocol server underneath.
func unhook(s Server) Server {
	for {
		switch h := s.(type) {
		case *hooked:
			s = h.Server
		case *journaled:
			s = h.Server
		default:
			return s
		}
	}
}

type p1 struct{ inner *proto1.Server }

func (s *p1) Protocol() Protocol { return P1 }
func (s *p1) HandleOp(req *core.OpRequest) (any, error) {
	//lint:ignore verifyflow the server applies client ops to its own UNtrusted store by design; clients verify every transition via the VO
	return s.inner.HandleOp(req)
}
func (s *p1) HandleAck(ack *core.AckRequest) error { return s.inner.HandleAck(ack) }
func (s *p1) HandleGetBackups(*core.GetBackupsRequest) (*core.BackupsResponse, error) {
	return nil, ErrUnsupported
}
func (s *p1) AdvanceEpoch() {}
func (s *p1) Epoch() uint64 { return 0 }
func (s *p1) DB() *vdb.DB   { return s.inner.DB() }
func (s *p1) Fork() Server  { return &p1{inner: s.inner.Fork()} }

type p2 struct{ inner *proto2.Server }

func (s *p2) Protocol() Protocol { return P2 }
func (s *p2) HandleOp(req *core.OpRequest) (any, error) {
	//lint:ignore verifyflow the server applies client ops to its own UNtrusted store by design; clients verify every transition via the VO
	return s.inner.HandleOp(req)
}
func (s *p2) HandleAck(*core.AckRequest) error { return ErrUnsupported }
func (s *p2) HandleGetBackups(*core.GetBackupsRequest) (*core.BackupsResponse, error) {
	return nil, ErrUnsupported
}
func (s *p2) AdvanceEpoch() {}
func (s *p2) Epoch() uint64 { return 0 }
func (s *p2) DB() *vdb.DB   { return s.inner.DB() }
func (s *p2) Fork() Server  { return &p2{inner: s.inner.Fork()} }

type p3 struct{ inner *proto3.Server }

func (s *p3) Protocol() Protocol { return P3 }
func (s *p3) HandleOp(req *core.OpRequest) (any, error) {
	//lint:ignore verifyflow the server applies client ops to its own UNtrusted store by design; clients verify every transition via the VO
	return s.inner.HandleOp(req)
}
func (s *p3) HandleAck(*core.AckRequest) error { return ErrUnsupported }
func (s *p3) HandleGetBackups(req *core.GetBackupsRequest) (*core.BackupsResponse, error) {
	return s.inner.HandleGetBackups(req), nil
}
func (s *p3) AdvanceEpoch() { s.inner.AdvanceEpoch() }
func (s *p3) Epoch() uint64 { return s.inner.Epoch() }
func (s *p3) DB() *vdb.DB   { return s.inner.DB() }
func (s *p3) Fork() Server  { return &p3{inner: s.inner.Fork()} }
