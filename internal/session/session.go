// Package session is one user's side of the paper's three client
// protocols as one deterministic state machine: Protocol I's signed
// ack (§4.2), Protocol II's sync round every k operations (§4.3) and
// Protocol III's epoch backup check. A Session wraps a proto1, proto2
// or proto3 user and makes every decision around it: the request, which
// response to accept, the follow-up requests, and the sync-round rules
// — open a round as initiator, publish this user's report once and
// never while an operation is in flight, ignore stale round traffic,
// close the round on n reports.
//
// It holds no goroutine, lock, clock, channel or socket: it reaches the
// server only through the Caller and its peers only through the
// Publisher its caller supplies. Its caller serializes every method,
// and a Caller may let other methods run while a server call is out
// (internal/driver does, so a sync announcement registers while an
// operation waits on the server). internal/driver runs it live and
// internal/sim round by round.
package session

import (
	"encoding/binary"
	"fmt"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// Caller is the session's one path to the (untrusted) server.
type Caller interface {
	Call(req any) (any, error)
}

// Publisher is the session's path to its peers: the users' broadcast
// channel, which delivers every message (the publisher's own included)
// to every user in one FIFO total order. msg is a *core.SyncRequest or
// a *Report; delivery failures are the publisher's to handle.
type Publisher interface {
	Publish(msg any)
}

// Report is one user's sync report for one round.
type Report struct {
	Initiator sig.UserID
	Round     uint64
	ReportI   *core.SyncReportI
	ReportII  *core.SyncReportII
}

// wireReport is Report's wire tag; part of the wire format. The
// reports inside nest as tag + body, an absent one as the nil byte.
const wireReport = 96

func init() {
	wire.Register(wireReport, func(b []byte, m *Report) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(m.Initiator))
		b = binary.AppendUvarint(b, m.Round)
		b, err := appendOptional(b, m.ReportI)
		if err != nil {
			return nil, err
		}
		return appendOptional(b, m.ReportII)
	}, func(r *binenc.Reader) *Report {
		m := &decodedReport{Report: Report{Initiator: sig.UserID(r.Uint32()), Round: r.Uvarint()}}
		if wire.ReadTyped(r, &m.i) {
			m.ReportI = &m.i
		}
		if wire.ReadTyped(r, &m.ii) {
			m.ReportII = &m.ii
		}
		return &m.Report
	})
}

// decodedReport is a decoded Report together with the nested reports
// it points to: one allocation instead of one per report.
type decodedReport struct {
	Report
	i  core.SyncReportI
	ii core.SyncReportII
}

// appendOptional appends *p as tag + body, or the nil byte for nil.
func appendOptional[T any](b []byte, p *T) ([]byte, error) {
	if p == nil {
		return wire.Append(b, nil)
	}
	return wire.AppendTyped(b, *p)
}

type roundKey struct {
	initiator sig.UserID
	round     uint64
}

type round struct {
	reports  map[sig.UserID]*Report // the latest report of each user
	reported bool                   // this user has published its own report
}

// machine is what the three protocols' user state machines share;
// Session exports it as its per-user reads.
type machine interface {
	ID() sig.UserID
	LCtr() uint64
	VerifiedRoot() (uint64, digest.Digest)
	Journal() *forensics.Journal
}

// Session is one user's protocol state machine. Exactly one of u1, u2
// and u3 is set, and machine is it.
type Session struct {
	machine
	u1 *proto1.User
	u2 *proto2.User
	u3 *proto3.User

	conn   Caller
	pub    Publisher
	nUsers int

	rounds map[roundKey]*round
	done   map[sig.UserID]uint64 // last closed round per initiator
	seq    uint64                // rounds this user has opened
	busy   bool                  // an operation is between Request and Finish
}

// New wraps user, a *proto1.User, *proto2.User or *proto3.User.
// nUsers is the population a sync round collects reports from; pub
// may be nil under Protocol III, which has no sync rounds.
func New(user any, conn Caller, pub Publisher, nUsers int) *Session {
	s := &Session{conn: conn, pub: pub, nUsers: nUsers}
	s.rounds, s.done = make(map[roundKey]*round), make(map[sig.UserID]uint64)
	switch u := user.(type) {
	case *proto1.User:
		s.machine, s.u1 = u, u
	case *proto2.User:
		s.machine, s.u2 = u, u
	case *proto3.User:
		s.machine, s.u3 = u, u
	default:
		panic(fmt.Sprintf("session: %T is not a protocol user", user))
	}
	return s
}

// NeedsSync reports whether the user has completed its k operations
// since the last sync round (never, under Protocol III).
func (s *Session) NeedsSync() bool {
	u, ok := s.machine.(interface{ NeedsSync() bool })
	return ok && u.NeedsSync()
}

// SyncReport returns the user's registers as a sync report, Initiator
// and Round unset (both reports nil under Protocol III).
func (s *Session) SyncReport() *Report {
	m := new(Report)
	switch {
	case s.u1 != nil:
		r := s.u1.SyncReport()
		m.ReportI = &r
	case s.u2 != nil:
		r := s.u2.SyncReport()
		m.ReportII = &r
	}
	return m
}

// Busy reports whether an operation is between Request and Finish.
func (s *Session) Busy() bool { return s.busy }

// Syncing reports whether a sync round is open for this user; the
// paper's users start no operation meanwhile.
func (s *Session) Syncing() bool { return len(s.rounds) > 0 }

// Do runs one operation end to end: Request, the server call, Finish.
func (s *Session) Do(op vdb.Op) (any, error) {
	req := s.Request(op)
	raw, err := s.conn.Call(&req)
	return s.Finish(op, raw, err)
}

// Request starts an operation and returns its request, by value so a
// caller may send it inside an envelope of its own.
func (s *Session) Request(op vdb.Op) core.OpRequest {
	s.busy = true
	switch {
	case s.u1 != nil:
		return *s.u1.Request(op)
	case s.u2 != nil:
		return *s.u2.Request(op)
	}
	return *s.u3.Request(op)
}

// Finish ends the operation Request started, given the server call's
// outcome: it verifies the response and runs the protocol's follow-up
// through the Caller (Protocol I's ack, Protocol III's epoch check),
// publishes the reports deferred meanwhile and, if the operation
// completed the user's k, opens a sync round as its initiator.
func (s *Session) Finish(op vdb.Op, raw any, callErr error) (any, error) {
	var ans any
	err := callErr
	if err == nil {
		ans, err = s.handle(op, raw)
	}
	s.busy = false
	for key, rd := range s.rounds {
		if !rd.reported {
			s.report(key)
		}
	}
	if err != nil {
		return nil, err
	}
	if s.NeedsSync() {
		s.seq++
		s.pub.Publish(&core.SyncRequest{From: s.ID(), Round: s.seq})
		// The initiator "does not start a new transaction between the
		// sync-up message and the broadcast": its report goes out now.
		s.report(roundKey{s.ID(), s.seq})
	}
	return ans, nil
}

// handle verifies raw, the server's response to op, and runs the
// protocol's remaining steps.
func (s *Session) handle(op vdb.Op, raw any) (any, error) {
	if s.u1 != nil {
		resp, ok := raw.(*core.OpResponseI)
		if !ok {
			return nil, s.violation("response type", raw)
		}
		ack, ans, err := s.u1.HandleResponse(op, resp)
		if err != nil {
			return nil, err
		}
		if _, err := s.conn.Call(ack); err != nil {
			return nil, err
		}
		return ans, nil
	}
	resp, ok := raw.(*core.OpResponseII)
	if !ok {
		return nil, s.violation("response type", raw)
	}
	if s.u2 != nil {
		return s.u2.HandleResponse(op, resp)
	}
	out, err := s.u3.HandleResponse(op, resp)
	if err != nil {
		return nil, err
	}
	if out.CheckEpoch != nil {
		if err := s.checkEpoch(*out.CheckEpoch); err != nil {
			return nil, err
		}
	}
	return out.Answer, nil
}

// checkEpoch is the designated user's audit of epoch e: the stored
// backups of epoch e−1 (none for epoch 0) and of epoch e.
func (s *Session) checkEpoch(e uint64) error {
	var prev, cur *core.BackupsResponse
	var err error
	if e > 0 {
		if prev, err = s.backups(e - 1); err != nil {
			return err
		}
	}
	if cur, err = s.backups(e); err != nil {
		return err
	}
	return s.u3.CompleteEpochCheck(e, prev, cur)
}

func (s *Session) backups(e uint64) (*core.BackupsResponse, error) {
	raw, err := s.conn.Call(s.u3.BackupsRequest(e))
	if err != nil {
		return nil, err
	}
	r, ok := raw.(*core.BackupsResponse)
	if !ok {
		return nil, s.violation("backups response", raw)
	}
	return r, nil
}

func (s *Session) violation(what string, raw any) error {
	return core.Detect(core.ProtocolViolation, s.ID(), s.LCtr(), fmt.Errorf("bad %s %T", what, raw))
}

// OnAnnounce handles a delivered sync announcement: it registers the
// round and publishes this user's report (from Finish, if an operation
// is in flight).
func (s *Session) OnAnnounce(m *core.SyncRequest) {
	key := roundKey{m.From, m.Round}
	if s.isDone(key) {
		return
	}
	s.report(key)
}

// OnReport handles a delivered sync report; one for a round not yet
// announced to this user registers it as the announcement would. The
// nth report closes the round: completed is true and err the verdict.
func (s *Session) OnReport(m *Report) (completed bool, err error) {
	key := roundKey{m.Initiator, m.Round}
	if s.isDone(key) {
		return false, nil
	}
	rd := s.report(key)
	switch {
	case s.u1 != nil && m.ReportI != nil:
		rd.reports[m.ReportI.User] = m
	case s.u2 != nil && m.ReportII != nil:
		rd.reports[m.ReportII.User] = m
	}
	if len(rd.reports) < s.nUsers {
		return false, nil
	}
	if s.u1 != nil {
		err = s.u1.CompleteSync(collect(rd.reports, func(m *Report) core.SyncReportI { return *m.ReportI }))
	} else {
		err = s.u2.CompleteSync(collect(rd.reports, func(m *Report) core.SyncReportII { return *m.ReportII }))
	}
	delete(s.rounds, key)
	s.done[key.initiator] = key.round
	return true, err
}

// collect lists one protocol's reports out of a round's messages. The
// sync checks do not depend on the order.
func collect[R any](ms map[sig.UserID]*Report, report func(*Report) R) []R {
	out := make([]R, 0, len(ms))
	for _, m := range ms {
		out = append(out, report(m))
	}
	return out
}

// isDone reports whether key names a round this user has already
// closed. Reconnecting broadcast members can observe stale sync
// traffic (a replayed announcement, a straggler report from a slow
// peer); reopening a finished round would publish a fresh register
// snapshot into it and manufacture a false mismatch.
func (s *Session) isDone(key roundKey) bool {
	return key.round <= s.done[key.initiator]
}

// report registers the round and, once, publishes this user's report
// for it. Registers are only ever snapshotted between operations:
// while one is in flight the round is registered — which is what keeps
// the next operation from starting — and Finish publishes the report.
func (s *Session) report(key roundKey) *round {
	rd, ok := s.rounds[key]
	if !ok {
		rd = &round{reports: make(map[sig.UserID]*Report)}
		s.rounds[key] = rd
	}
	if rd.reported || s.busy {
		return rd
	}
	rd.reported = true
	m := s.SyncReport()
	m.Initiator, m.Round = key.initiator, key.round
	s.pub.Publish(m)
	return rd
}
