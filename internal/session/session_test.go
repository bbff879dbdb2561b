package session

import (
	"errors"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

// outbox is a Publisher that keeps what it is given.
type outbox struct{ msgs []any }

func (o *outbox) Publish(msg any) { o.msgs = append(o.msgs, msg) }

// serverCaller is a Caller straight onto a protocol server.
type serverCaller struct{ srv server.Server }

func (c serverCaller) Call(req any) (any, error) {
	switch r := req.(type) {
	case *core.OpRequest:
		return c.srv.HandleOp(r)
	case *core.AckRequest:
		return &core.OKResponse{}, c.srv.HandleAck(r)
	}
	return nil, errors.New("unexpected request")
}

// replyCaller answers every request with reply.
type replyCaller struct{ reply any }

func (c replyCaller) Call(any) (any, error) { return c.reply, nil }

var root = vdb.New(0).Root()

// user0 is user 0 of two under Protocol II, with sync period k.
func user0(conn Caller, pub Publisher, k uint64) *Session {
	return New(proto2.NewUser(0, root, k), conn, pub, 2)
}

// peer is user 1's report for round r of initiator 1, as a peer with no
// operations sends it.
func peer(r uint64) *Report {
	two := proto2.NewUser(1, root, 1<<62).SyncReport()
	return &Report{Initiator: 1, Round: r, ReportII: &two}
}

// reports returns the reports among msgs.
func reports(msgs []any) []*Report {
	var out []*Report
	for _, m := range msgs {
		if r, ok := m.(*Report); ok {
			out = append(out, r)
		}
	}
	return out
}

// TestRoundRules pins the sync-round rules the live driver relies on
// and no socket test can reach deterministically.
func TestRoundRules(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, s *Session, out *outbox)
	}{
		{"stale traffic for a closed round publishes nothing and opens nothing", func(t *testing.T, s *Session, out *outbox) {
			s.OnAnnounce(&core.SyncRequest{From: 1, Round: 2})
			own := reports(out.msgs)
			if len(own) != 1 {
				t.Fatalf("announcement published %d reports, want 1", len(own))
			}
			if done, _ := s.OnReport(own[0]); done {
				t.Fatal("round closed on one report of two")
			}
			if done, err := s.OnReport(peer(2)); !done || err != nil {
				t.Fatalf("nth report: completed %v, err %v", done, err)
			}
			out.msgs = nil
			s.OnAnnounce(&core.SyncRequest{From: 1, Round: 2}) // replayed
			s.OnAnnounce(&core.SyncRequest{From: 1, Round: 1}) // older still
			done, err := s.OnReport(peer(2))                   // straggler
			if done || err != nil || len(out.msgs) != 0 || s.Syncing() {
				t.Fatalf("stale traffic: completed %v, err %v, published %v, syncing %v", done, err, out.msgs, s.Syncing())
			}
		}},
		{"a report before its announcement gets this user's report", func(t *testing.T, s *Session, out *outbox) {
			if done, _ := s.OnReport(peer(1)); done || !s.Syncing() {
				t.Fatalf("completed %v, syncing %v; want an open round", done, s.Syncing())
			}
			s.OnAnnounce(&core.SyncRequest{From: 1, Round: 1})
			own := reports(out.msgs)
			if len(own) != 1 || own[0].Initiator != 1 || own[0].Round != 1 || own[0].ReportII.User != 0 {
				t.Fatalf("published %+v, want user 0's one report for round 1 of initiator 1", out.msgs)
			}
		}},
		{"an announcement during an operation registers at once and leaves the report to it", func(t *testing.T, s *Session, out *outbox) {
			op := &vdb.NopOp{}
			s.Request(op)
			s.OnAnnounce(&core.SyncRequest{From: 1, Round: 1})
			if !s.Syncing() || len(out.msgs) != 0 {
				t.Fatalf("syncing %v, published %v; want the round registered and nothing published", s.Syncing(), out.msgs)
			}
			unreachable := errors.New("server unreachable")
			if _, err := s.Finish(op, nil, unreachable); err != unreachable {
				t.Fatalf("Finish = %v, want the call's error", err)
			}
			if own := reports(out.msgs); len(own) != 1 || s.Busy() || !s.Syncing() {
				t.Fatalf("after the operation: published %v, busy %v, syncing %v", out.msgs, s.Busy(), s.Syncing())
			}
		}},
		{"one report per user counts", func(t *testing.T, s *Session, out *outbox) {
			s.OnReport(peer(1))
			if done, _ := s.OnReport(peer(1)); done {
				t.Fatal("a peer's repeated report closed the round")
			}
			if done, err := s.OnReport(reports(out.msgs)[0]); !done || err != nil {
				t.Fatalf("own report: completed %v, err %v", done, err)
			}
		}},
		{"a round with a lying report fails its check", func(t *testing.T, s *Session, out *outbox) {
			bad := peer(1)
			bad.ReportII.Sigma = digest.OfBytes(digest.DomainState, []byte("forged"))
			s.OnReport(bad)
			done, err := s.OnReport(reports(out.msgs)[0])
			if de, ok := core.AsDetection(err); !done || !ok || de.Class != core.SyncMismatch {
				t.Fatalf("completed %v, err %v; want a SyncMismatch detection", done, err)
			}
			if s.Syncing() {
				t.Fatal("a failed round stayed open")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := new(outbox)
			tc.run(t, user0(nil, out, 1<<62), out)
		})
	}
}

// TestInitiatorAnnouncesThenReports: the operation that completes a
// user's k announces a round and publishes the initiator's report
// before Finish returns, so the next operation waits on the round.
func TestInitiatorAnnouncesThenReports(t *testing.T) {
	out := new(outbox)
	db := vdb.New(0)
	s := user0(serverCaller{server.NewP2(db)}, out, 1)
	if _, err := s.Do(&vdb.WriteOp{Puts: []vdb.KV{{Key: "k", Val: []byte("v")}}}); err != nil {
		t.Fatal(err)
	}
	if len(out.msgs) != 2 {
		t.Fatalf("published %v, want an announcement and a report", out.msgs)
	}
	ann, ok := out.msgs[0].(*core.SyncRequest)
	if !ok || *ann != (core.SyncRequest{From: 0, Round: 1}) {
		t.Fatalf("first message %#v, want user 0's announcement of round 1", out.msgs[0])
	}
	if rep, ok := out.msgs[1].(*Report); !ok || rep.Initiator != 0 || rep.Round != 1 || rep.ReportII == nil {
		t.Fatalf("second message %#v, want user 0's report for its round 1", out.msgs[1])
	}
	if !s.Syncing() || s.LCtr() != 1 {
		t.Fatalf("syncing %v, lctr %d; want an open round after one operation", s.Syncing(), s.LCtr())
	}
}

// TestWrongResponseTypeIsAViolation: a response of another protocol's
// type is a ProtocolViolation detection, and publishes nothing.
func TestWrongResponseTypeIsAViolation(t *testing.T) {
	out := new(outbox)
	s := user0(replyCaller{&core.OpResponseI{}}, out, 1)
	_, err := s.Do(&vdb.NopOp{})
	if de, ok := core.AsDetection(err); !ok || de.Class != core.ProtocolViolation || de.User != sig.UserID(0) {
		t.Fatalf("Do = %v, want user 0's ProtocolViolation", err)
	}
	if len(out.msgs) != 0 || s.Busy() {
		t.Fatalf("published %v, busy %v after a failed operation", out.msgs, s.Busy())
	}
}
