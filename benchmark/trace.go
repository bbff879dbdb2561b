package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Span names, outermost first. One user operation is one driver.do
// root; each request it sends is a transport.call child, and the
// server-side handling of that request is a server.handle grandchild.
const (
	spanDo     = "driver.do"
	spanCall   = "transport.call"
	spanHandle = "server.handle"
)

// span is one timed interval at a layer boundary. Spans of one user
// operation share Op (the id of the operation's root span); Parent is
// the span that caused this one, 0 for a root.
type span struct {
	Op      uint64 `json:"op"`
	ID      uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	User    int    `json:"user"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Each user issues
// one request at a time over its own connection, so "the user's open
// span" identifies the parent on both sides of the wire without
// touching the messages.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64

	do   [users]atomic.Uint64 // id of the user's open driver.do span
	call [users]atomic.Uint64 // id of the user's open transport.call span

	// client[u] is appended by user u's goroutine, server[u] by the
	// goroutine serving user u's connection.
	client [users][]span
	server [users][]span
}

func newRecorder(opsPerUser int) *recorder {
	r := &recorder{epoch: time.Now()}
	for u := 0; u < users; u++ {
		// Room for the root plus a few calls per operation, so appends
		// do not reallocate inside the timed window.
		r.client[u] = make([]span, 0, 4*opsPerUser)
		r.server[u] = make([]span, 0, 3*opsPerUser)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginDo opens user u's root span and returns its id.
func (r *recorder) beginDo(u int) uint64 {
	id := r.next.Add(1)
	r.do[u].Store(id)
	return id
}

func (r *recorder) endDo(u int, id uint64, start, end time.Time) {
	r.do[u].Store(0)
	r.client[u] = append(r.client[u], span{
		Op: id, ID: id, Name: spanDo, User: u,
		StartNS: int64(start.Sub(r.epoch)), EndNS: int64(end.Sub(r.epoch)),
	})
}

// beginCall opens a transport.call span under user u's open root. It
// reports false outside any traced operation (preload, warm-up,
// read-back), where nothing is recorded.
func (r *recorder) beginCall(u int) (span, bool) {
	op := r.do[u].Load()
	if op == 0 {
		return span{}, false
	}
	s := span{Op: op, ID: r.next.Add(1), Parent: op, Name: spanCall, User: u, StartNS: r.now()}
	r.call[u].Store(s.ID)
	return s, true
}

func (r *recorder) endCall(s span) {
	s.EndNS = r.now()
	r.call[s.User].Store(0)
	r.client[s.User] = append(r.client[s.User], s)
}

// beginHandle opens a server.handle span under user u's open call.
func (r *recorder) beginHandle(u int) (span, bool) {
	parent := r.call[u].Load()
	if parent == 0 {
		return span{}, false
	}
	return span{Op: r.do[u].Load(), ID: r.next.Add(1), Parent: parent, Name: spanHandle, User: u, StartNS: r.now()}, true
}

func (r *recorder) endHandle(s span) {
	s.EndNS = r.now()
	r.server[s.User] = append(r.server[s.User], s)
}

func (r *recorder) spans() []span {
	var all []span
	for u := 0; u < users; u++ {
		all = append(all, r.client[u]...)
		all = append(all, r.server[u]...)
	}
	return all
}

// traceStats are the per-layer numbers the span trees yield.
type traceStats struct {
	doSelfUS    float64 // p50 of driver.do minus its transport.call children
	callSelfUS  float64 // p50 of transport.call minus its server.handle child
	handleUS    float64 // p50 of server.handle
	callsPerOp  float64
	orphanSpans int // spans whose parent was not recorded (must be 0)
}

// analyse computes self times: a span's duration minus the part its
// children cover. Children of one parent never overlap here (a user
// has one request in flight), so the covered part is their sum.
func analyse(all []span) traceStats {
	ids := make(map[uint64]struct{}, len(all))
	for _, s := range all {
		ids[s.ID] = struct{}{}
	}
	covered := make(map[uint64]int64)
	var st traceStats
	for _, s := range all {
		if s.Parent == 0 {
			continue
		}
		if _, ok := ids[s.Parent]; !ok {
			st.orphanSpans++
		}
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	var doSelf, callSelf, handle []time.Duration
	for _, s := range all {
		d := time.Duration(s.EndNS - s.StartNS)
		switch s.Name {
		case spanDo:
			doSelf = append(doSelf, d-time.Duration(covered[s.ID]))
		case spanCall:
			callSelf = append(callSelf, d-time.Duration(covered[s.ID]))
		case spanHandle:
			handle = append(handle, d)
		}
	}
	sortDurations(doSelf)
	sortDurations(callSelf)
	sortDurations(handle)
	st.doSelfUS = micros(quantile(doSelf, 0.5))
	st.callSelfUS = micros(quantile(callSelf, 0.5))
	st.handleUS = micros(quantile(handle, 0.5))
	if len(doSelf) > 0 {
		st.callsPerOp = float64(len(callSelf)) / float64(len(doSelf))
	}
	return st
}

// writeSpans writes one JSON object per span to dir/<name>.trace.jsonl.
func writeSpans(dir, name string, all []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
