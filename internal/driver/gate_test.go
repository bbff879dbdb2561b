package driver

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/session"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

// gateEvent is one thing the gate test observes about the peer, in the
// order it happened.
type gateEvent int

const (
	evStarted   gateEvent = iota // the peer's Do sent a request (now parked in the gated caller)
	evDelivered                  // a sync-up reached the peer's receive loop
	evPublished                  // the peer published its report for the round
)

// gatedCaller parks every call until the test releases it, one call at
// a time.
type gatedCaller struct {
	transport.Caller
	events  chan<- gateEvent
	release chan struct{}
	done    chan struct{}
	once    sync.Once
}

func (g *gatedCaller) Call(req any) (any, error) {
	g.events <- evStarted
	select {
	case <-g.release:
	case <-g.done:
		return nil, errors.New("gated caller closed")
	}
	return g.Caller.Call(req)
}

func (g *gatedCaller) Close() error {
	g.once.Do(func() { close(g.done) })
	return g.Caller.Close()
}

// tapChannel reports when a sync-up has been handed to the client's
// receive loop and when the client publishes a report.
type tapChannel struct {
	broadcast.Channel
	events chan<- gateEvent
	out    chan broadcast.Message
}

func newTapChannel(inner broadcast.Channel, events chan<- gateEvent) *tapChannel {
	tc := &tapChannel{Channel: inner, events: events, out: make(chan broadcast.Message)}
	go func() {
		defer close(tc.out)
		for msg := range inner.Recv() {
			tc.out <- msg // unbuffered: returns once the receive loop holds msg
			if _, ok := msg.Payload.(*core.SyncRequest); ok {
				events <- evDelivered
			}
		}
	}()
	return tc
}

func (tc *tapChannel) Recv() <-chan broadcast.Message { return tc.out }

func (tc *tapChannel) Publish(msg broadcast.Message) error {
	if _, ok := msg.Payload.(*session.Report); ok {
		tc.events <- evPublished
	}
	return tc.Channel.Publish(msg)
}

// sawDelivery reports whether the receive loop has registered a
// delivered sync round.
func (c *Client) sawDelivery() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess.Syncing()
}

// TestSyncGateClosesAtDelivery pins the paper's "users do not start a
// new transaction between the sync-up message and the broadcast" at the
// implementation level. A peer runs Do in a tight loop against a server
// the test releases one call at a time; an initiator announces a round
// while one of the peer's calls is in flight. From the moment the
// receive loop has taken the sync-up, the peer may start at most two
// more operations before its report is out — not the dozens a receive
// loop starved of the client mutex lets through (EXPERIMENTS.md "PR 19"
// has the parent's run of this test).
func TestSyncGateClosesAtDelivery(t *testing.T) {
	const (
		rounds = 250
		k      = 4
	)
	db := vdb.New(0)
	handler := NewHandler(server.NewP2(db), cvs.NewStore())
	hub := broadcast.NewHub()
	defer hub.Close()

	events := make(chan gateEvent, 1024)
	gate := &gatedCaller{Caller: transport.NewInproc(handler), events: events, release: make(chan struct{}), done: make(chan struct{})}
	initiator := NewP2(proto2.NewUser(0, db.Root(), k), transport.NewInproc(handler), hub.Join(), 2)
	peer := NewP2(proto2.NewUser(1, db.Root(), 1<<62), gate, newTapChannel(hub.Join(), events), 2)

	peerDone := make(chan error, 1)
	go func() {
		for {
			if _, err := peer.Do(&vdb.NopOp{}); err != nil {
				peerDone <- err
				return
			}
		}
	}()
	next := func(what string) gateEvent {
		t.Helper()
		select {
		case ev := <-events:
			return ev
		case <-time.After(10 * time.Second):
			t.Fatalf("hung waiting for %s", what)
			return 0
		}
	}

	started := make([]int, 0, rounds) // per round: operations the peer started between delivery and publication
	parked := false                   // the peer has a call waiting for release
	for r := 0; r < rounds; r++ {
		// The peer parks one call in the server; then the initiator runs
		// a sync period, whose k-th operation announces the round.
		if !parked {
			if ev := next("the peer's next call"); ev != evStarted {
				t.Fatalf("round %d: event %v while waiting for the peer's call", r, ev)
			}
			parked = true
		}
		for i := 0; i < k; i++ {
			if _, err := initiator.Do(&vdb.NopOp{}); err != nil {
				t.Fatalf("round %d: initiator: %v", r, err)
			}
		}
		if ev := next("delivery of the sync-up"); ev != evDelivered {
			t.Fatalf("round %d: event %v while waiting for the sync-up's delivery", r, ev)
		}
		// The receive loop has been handed the message; wait until it
		// has run (the peer's call stays parked, as it would be in the
		// server, and the client mutex is free meanwhile). What follows
		// then measures the gate, not how soon the scheduler runs a
		// woken goroutine.
		for deadline := time.Now().Add(10 * time.Second); !peer.sawDelivery(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the receive loop never took the sync-up", r)
			}
		}
		// Release the peer's calls one at a time until its report is out.
		n := 0
		for published := false; !published; {
			if parked {
				gate.release <- struct{}{}
				parked = false
			}
			switch ev := next("the peer's report or its next call"); ev {
			case evPublished:
				published = true
			case evStarted:
				n++
				parked = true
			default:
				t.Fatalf("round %d: unexpected event %v", r, ev)
			}
		}
		started = append(started, n)
		if err := initiator.WaitIdle(10 * time.Second); err != nil {
			t.Fatalf("round %d: initiator: %v", r, err)
		}
	}

	sorted := append([]int(nil), started...)
	sort.Ints(sorted)
	worst, over := sorted[len(sorted)-1], 0
	for _, n := range started {
		if n > 2 {
			over++
		}
	}
	t.Logf("operations the peer started between a sync-up's delivery and its report, over %d rounds: median %d, p90 %d, max %d, %d rounds over 2; first rounds %v",
		rounds, sorted[len(sorted)/2], sorted[len(sorted)*9/10], worst, over, started[:10])
	if worst > 2 {
		t.Errorf("the peer started up to %d operations after a sync-up reached it (%d of %d rounds over 2)", worst, over, rounds)
	}

	// Zero false alarms, and Close wakes the peer out of its parked call.
	if err := initiator.Err(); err != nil {
		t.Errorf("initiator: %v", err)
	}
	if err := peer.Err(); err != nil {
		t.Errorf("peer: %v", err)
	}
	initiator.Close()
	peer.Close()
	select {
	case <-peerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not wake the peer's Do")
	}
}

// TestSyncGateWakesWaiters: a Do parked behind an open round, and a
// WaitIdle beside it, wake when the round closes — and when the client
// is closed instead.
func TestSyncGateWakesWaiters(t *testing.T) {
	db := vdb.New(0)
	handler := NewHandler(server.NewP2(db), cvs.NewStore())
	hub := broadcast.NewHub()
	defer hub.Close()
	a := NewP2(proto2.NewUser(0, db.Root(), 1), transport.NewInproc(handler), hub.Join(), 2)
	// User 1 never answers: its subscription is joined but nobody reads.
	silent := hub.Join()
	defer silent.Close()

	// k = 1: the first operation opens a round that cannot close.
	if _, err := a.Do(&vdb.NopOp{}); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitIdle(20 * time.Millisecond); err == nil {
		t.Fatal("WaitIdle returned with a round open")
	}
	doErr := make(chan error, 1)
	go func() {
		_, err := a.Do(&vdb.NopOp{})
		doErr <- err
	}()
	select {
	case err := <-doErr:
		t.Fatalf("Do went through an open round: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	a.Close()
	select {
	case err := <-doErr:
		if err == nil {
			t.Fatal("Do succeeded on a closed client")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the Do parked at the gate")
	}
}
