package transport

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/wire"
)

// SessionTable gives a server exactly-once request application in the
// face of client retries. A resilient client wraps every request in a
// wire.SessionRequest{SID, Seq}; the table caches, per session, the
// outcome of every applied sequence inside a sliding window. A retry
// of an applied sequence returns the cache without touching the
// handler — which is what makes reconnect-and-retry safe for
// non-idempotent protocol operations: without it, a retried op whose
// original was applied would advance the server's register a second
// time and the client's next sync barrier would raise a *false*
// deviation alarm.
//
// Sequences may arrive out of order (concurrent callers on one session
// race their retries), so the cache is keyed by sequence, not a single
// high-water mark: any sequence not yet applied and not yet pruned is
// applied on arrival. Below the prune horizon the response is gone and
// the request is refused loudly rather than re-applied.
//
// The table is also part of the durable state: Freeze quiesces
// dispatch and hands a consistent snapshot of all sessions to the
// checkpoint writer, so a restored server still recognizes in-flight
// retries from before the crash. A checkpoint that captured the
// database but not the session cache would tear the two apart and
// manufacture false alarms on recovery.
type SessionTable struct {
	// qmu is the quiesce lock: Dispatch holds it shared for the whole
	// handler call, Freeze holds it exclusive. This is the only way to
	// capture (db, sessions) as a consistent cut without a
	// stop-the-world flag in every protocol server.
	qmu sync.RWMutex

	mu   sync.Mutex // guards m and tick
	m    map[uint64]*session
	tick uint64
}

// A Detacher is a response built on server memory — a VO that writes
// itself from the database tree it prunes, content served from the
// store uncopied; after Detach the response shares no memory with the
// server. The table detaches every response it caches: the cache
// outlives the reply by a whole session window, and a response that
// writes itself from the server's state would keep that old version of
// the state alive as long. An in-process call detaches every response
// it returns (Inproc), since the process boundary is where a response
// stops sharing server memory.
type Detacher interface{ Detach() }

// MaxSessions bounds the table; beyond it the least recently
// used session is evicted (its client, if still alive, fails with a
// horizon error and must start a new session).
const MaxSessions = 4096

// sessionWindow is how many recent outcomes each session retains. A
// retry delayed past this many newer calls on the same session finds
// its response pruned; since one wire connection serializes round
// trips, real retries sit within a handful of sequences of the max.
const sessionWindow = 256

type outcome struct {
	resp   any
	errMsg string
	isErr  bool
}

type session struct {
	mu    sync.Mutex
	done  map[uint64]outcome
	high  uint64 // highest applied sequence
	floor uint64 // outcomes with seq <= floor are pruned
	used  uint64
}

// NewSessionTable builds an empty table holding at most
// MaxSessions sessions.
func NewSessionTable() *SessionTable {
	return &SessionTable{m: make(map[uint64]*session)}
}

// get returns the session for sid, creating (and LRU-evicting) as
// needed, and stamps its recency.
func (t *SessionTable) get(sid uint64) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tick++
	s, ok := t.m[sid]
	if !ok {
		if len(t.m) >= MaxSessions {
			var vid uint64
			var victim *session
			for id, c := range t.m {
				if victim == nil || c.used < victim.used {
					vid, victim = id, c
				}
			}
			delete(t.m, vid)
		}
		s = &session{done: make(map[uint64]outcome)}
		t.m[sid] = s
	}
	s.used = t.tick
	return s
}

// Dispatch applies r exactly once:
//
//   - Seq already applied: the original response (or the original
//     application error) is replayed from cache; the handler is not
//     called.
//   - Seq at or below the prune horizon and not cached: the response
//     is gone — refuse loudly rather than re-apply.
//   - Otherwise: the handler runs and its outcome is cached.
//
// The quiesce lock is held shared across the handler call so Freeze
// observes either "not applied, not cached" or "applied and cached" —
// never the torn middle. The per-session lock additionally serializes
// one session's applications, matching the serialization its single
// wire connection imposes anyway.
func (t *SessionTable) Dispatch(r *wire.SessionRequest, handler Handler) (any, error) {
	if r.SID == 0 {
		return nil, fmt.Errorf("transport: session id must be nonzero")
	}
	if r.Seq == 0 {
		return nil, fmt.Errorf("transport: session seq must be nonzero")
	}
	t.qmu.RLock()
	defer t.qmu.RUnlock()

	s := t.get(r.SID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.done[r.Seq]; ok {
		if o.isErr {
			return nil, fmt.Errorf("%s", o.errMsg)
		}
		return o.resp, nil
	}
	if r.Seq <= s.floor {
		return nil, fmt.Errorf("transport: request seq %d below session horizon %d: response no longer cached", r.Seq, s.floor)
	}
	resp, err := handler(r.Req)
	if err != nil && wire.ErrCode(err) != 0 {
		// Typed refusals (overload shed, expired deadline) happen
		// before the handler touches protocol state — the refusal is
		// atomic by contract. Caching one would make a retry of this
		// sequence replay "overloaded" forever after capacity
		// returned, so refusals pass through uncached and a retry is
		// a fresh admission attempt.
		return nil, err
	}
	o := outcome{resp: resp}
	if err != nil {
		o = outcome{isErr: true, errMsg: err.Error()}
	} else if d, ok := resp.(Detacher); ok {
		d.Detach()
	}
	s.done[r.Seq] = o
	if r.Seq > s.high {
		s.high = r.Seq
	}
	if s.high > sessionWindow && s.floor < s.high-sessionWindow {
		s.floor = s.high - sessionWindow
		for seq := range s.done {
			if seq <= s.floor {
				delete(s.done, seq)
			}
		}
	}
	return resp, err
}

// OpOutcome is one cached (sequence, outcome) pair in a checkpoint.
type OpOutcome struct {
	Seq    uint64
	Resp   any
	ErrMsg string
	IsErr  bool
}

// SessionState is one session's durable core: enough to replay cached
// responses and refuse pruned retries after a restart.
type SessionState struct {
	SID   uint64
	High  uint64
	Floor uint64
	Ops   []OpOutcome
}

// SessionsSnapshot is the capture of a SessionTable embedded in server
// checkpoints, in SID then Seq order: one state, one encoding.
type SessionsSnapshot struct {
	Sessions []SessionState
}

// AppendSnapshot appends s to b (layout: DESIGN.md "State files"). A
// cached response nests exactly as it travelled on the network
// (wire.Append), so only registered message types can be cached.
func AppendSnapshot(b []byte, s *SessionsSnapshot) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(s.Sessions)))
	for _, st := range s.Sessions {
		for _, v := range [...]uint64{st.SID, st.High, st.Floor, uint64(len(st.Ops))} {
			b = binary.AppendUvarint(b, v)
		}
		for _, o := range st.Ops {
			b = binenc.AppendString(binenc.AppendBool(binary.AppendUvarint(b, o.Seq), o.IsErr), o.ErrMsg)
			var err error
			if b, err = wire.Append(b, o.Resp); err != nil {
				return nil, fmt.Errorf("transport: session %d seq %d: %w", st.SID, o.Seq, err)
			}
		}
	}
	return b, nil
}

// ReadSnapshot reads what AppendSnapshot wrote, every count bounded by
// the bytes left. Cached responses keep windows onto the input.
func ReadSnapshot(r *binenc.Reader) *SessionsSnapshot {
	s := &SessionsSnapshot{Sessions: make([]SessionState, r.Count(4))}
	for i := range s.Sessions {
		st := &s.Sessions[i]
		st.SID, st.High, st.Floor = r.Uvarint(), r.Uvarint(), r.Uvarint()
		st.Ops = make([]OpOutcome, r.Count(4))
		for j := range st.Ops {
			st.Ops[j] = OpOutcome{Seq: r.Uvarint(), IsErr: r.Bool(), ErrMsg: r.String(), Resp: wire.Read(r)}
		}
	}
	return s
}

// Freeze blocks until every in-flight Dispatch has completed, holds
// new ones out, and runs f with a consistent snapshot of the table.
// The caller's f typically also captures the protocol server's state:
// because nothing is mid-application while f runs, the pair is a
// consistent cut.
func (t *SessionTable) Freeze(f func(*SessionsSnapshot)) {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	snap := &SessionsSnapshot{}
	t.mu.Lock()
	for sid, s := range t.m {
		if s.high == 0 {
			continue
		}
		st := SessionState{SID: sid, High: s.high, Floor: s.floor}
		for seq, o := range s.done {
			st.Ops = append(st.Ops, OpOutcome{Seq: seq, Resp: o.resp, ErrMsg: o.errMsg, IsErr: o.isErr})
		}
		sort.Slice(st.Ops, func(i, j int) bool { return st.Ops[i].Seq < st.Ops[j].Seq })
		snap.Sessions = append(snap.Sessions, st)
	}
	t.mu.Unlock()
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].SID < snap.Sessions[j].SID })
	f(snap)
}

// RestoreSessions loads a checkpointed snapshot into the table,
// replacing any current contents. Called during recovery before the
// transport starts accepting.
func (t *SessionTable) RestoreSessions(snap *SessionsSnapshot) {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = make(map[uint64]*session, len(snap.Sessions))
	for _, st := range snap.Sessions {
		t.tick++
		s := &session{done: make(map[uint64]outcome, len(st.Ops)), high: st.High, floor: st.Floor, used: t.tick}
		for _, o := range st.Ops {
			s.done[o.Seq] = outcome{resp: o.Resp, errMsg: o.ErrMsg, isErr: o.IsErr}
		}
		t.m[st.SID] = s
	}
}
