package broadcast

import (
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"trustedcvs/internal/fault"
	"trustedcvs/internal/sig"
)

// collect drains n messages from ch with a deadline.
func collect(t *testing.T, ch Channel, n int) []Message {
	t.Helper()
	out := make([]Message, 0, n)
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case m, ok := <-ch.Recv():
			if !ok {
				t.Fatalf("channel closed after %d/%d messages", len(out), n)
			}
			out = append(out, m)
		case <-timeout:
			t.Fatalf("timed out after %d/%d messages", len(out), n)
		}
	}
	return out
}

func payloads(ms []Message) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i], _ = strconv.Atoi(m.Payload.(string))
	}
	return out
}

func TestResumeBasicFIFO(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a := DialHubResume(hub.Addr())
	defer a.Close()
	b := DialHubResume(hub.Addr())
	defer b.Close()
	// Let both hellos land so b doesn't rely on replay for the whole run.
	time.Sleep(50 * time.Millisecond)
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Publish(Message{From: 1, Payload: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ch := range []Channel{a, b} {
		got := payloads(collect(t, ch, n))
		for i, v := range got {
			if v != i {
				t.Fatalf("order violated: got %v", got)
			}
		}
	}
}

func TestResumeAcrossFaultyNetwork(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	// Publisher on a clean connection, subscriber through a flaky one:
	// resets every few I/Os force repeated resume cycles.
	pub := DialHubResume(hub.Addr())
	defer pub.Close()
	inj := fault.NewInjector(fault.Config{Seed: 7, After: 4, ResetProb: 0.05, TruncateProb: 0.02})
	sub := DialHubResumeFunc(fault.Dialer(hub.Addr(), inj))
	defer sub.Close()

	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			_ = pub.Publish(Message{From: 2, Payload: strconv.Itoa(i)})
			if i%20 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	got := payloads(collect(t, sub, n))
	for i, v := range got {
		if v != i {
			t.Fatalf("gap or duplicate through faulty network at %d: got %d (injected %d faults)", i, v, inj.Injected())
		}
	}
	if inj.Injected() == 0 {
		t.Fatal("no faults injected; test proved nothing")
	}
}

func TestResumePublisherThroughFaults(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	inj := fault.NewInjector(fault.Config{Seed: 11, After: 4, ResetProb: 0.08})
	pub := DialHubResumeFunc(fault.Dialer(hub.Addr(), inj))
	defer pub.Close()
	sub := DialHubResume(hub.Addr())
	defer sub.Close()
	time.Sleep(50 * time.Millisecond)

	const n = 100
	for i := 0; i < n; i++ {
		if err := pub.Publish(Message{From: 3, Payload: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The clean subscriber must see every publication exactly once, in
	// order — resends after the publisher's reconnects are deduplicated
	// by the hub, lost first copies are resent.
	got := payloads(collect(t, sub, n))
	for i, v := range got {
		if v != i {
			t.Fatalf("hub-side dedupe failed at %d: got %d", i, v)
		}
	}
	// No extra duplicates trailing behind.
	select {
	case m := <-sub.Recv():
		t.Fatalf("duplicate delivery after the expected %d: %v", n, m.Payload)
	case <-time.After(200 * time.Millisecond):
	}
	if inj.Injected() == 0 {
		t.Fatal("no faults injected; test proved nothing")
	}
}

func TestResumeAndLegacyInterop(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	legacy, err := DialHub(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	res := DialHubResume(hub.Addr())
	defer res.Close()
	time.Sleep(50 * time.Millisecond)

	// Publish one at a time: the hub's total order is its arrival
	// order, so concurrent publishes from different connections may
	// legitimately swap.
	if err := legacy.Publish(Message{From: sig.UserID(1), Payload: strconv.Itoa(100)}); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]Channel{"legacy": legacy, "resume": res} {
		if got := payloads(collect(t, ch, 1)); got[0] != 100 {
			t.Fatalf("%s subscriber saw %v, want [100]", name, got)
		}
	}
	if err := res.Publish(Message{From: sig.UserID(2), Payload: strconv.Itoa(200)}); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]Channel{"legacy": legacy, "resume": res} {
		if got := payloads(collect(t, ch, 1)); got[0] != 200 {
			t.Fatalf("%s subscriber saw %v, want [200]", name, got)
		}
	}
}

func TestResumeReconnectCountAndHardOutage(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	addr := hub.Addr()

	// A dialer that fails entirely during the outage window.
	var outage chan struct{}
	outage = make(chan struct{})
	dial := func() (net.Conn, error) {
		select {
		case <-outage:
			return net.DialTimeout("tcp", addr, time.Second)
		default:
			return nil, net.ErrClosed
		}
	}
	sub := DialHubResumeFunc(dial)
	defer sub.Close()

	pubc := DialHubResume(addr)
	defer pubc.Close()
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 10; i++ {
		if err := pubc.Publish(Message{From: 1, Payload: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// End the outage: the subscriber's first successful connection
	// replays the whole log.
	time.Sleep(100 * time.Millisecond)
	close(outage)
	got := payloads(collect(t, sub, 10))
	for i, v := range got {
		if v != i {
			t.Fatalf("replay after outage broken: got %v", got)
		}
	}
}

// TestResumeHandshakeTimeoutOnMuteHub is the regression test for the
// unbounded-handshake bug: a hub that accepts the TCP connection but
// never answers the hello used to park the member in a blocking read
// forever — the connection looked "up", so the redial loop never ran.
// With HandshakeTimeout the mute connection costs one bounded timeout
// and the member redials; once a real hub answers, delivery resumes.
func TestResumeHandshakeTimeoutOnMuteHub(t *testing.T) {
	saved := HandshakeTimeout
	HandshakeTimeout = 50 * time.Millisecond
	defer func() { HandshakeTimeout = saved }()

	// A listener that accepts and then goes mute: never reads, never
	// writes, holds the connection open.
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	muteDone := make(chan struct{})
	go func() {
		defer close(muteDone)
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			conn, err := mute.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
		}
	}()

	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	// The first two dials land on the mute listener; later ones reach
	// the real hub. Without the handshake deadline the very first dial
	// hangs the member permanently and the test times out.
	var dials int
	var dialMu sync.Mutex
	dial := func() (net.Conn, error) {
		dialMu.Lock()
		dials++
		n := dials
		dialMu.Unlock()
		if n <= 2 {
			return net.DialTimeout("tcp", mute.Addr().String(), time.Second)
		}
		return net.DialTimeout("tcp", hub.Addr(), time.Second)
	}

	sub := DialHubResumeFunc(dial)
	defer sub.Close()

	pubc := DialHubResume(hub.Addr())
	defer pubc.Close()
	for i := 0; i < 5; i++ {
		if err := pubc.Publish(Message{From: 1, Payload: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}

	got := payloads(collect(t, sub, 5))
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery after mute-hub recovery broken: got %v", got)
		}
	}

	rc, ok := sub.(*resumeChannel)
	if !ok {
		t.Fatalf("DialHubResumeFunc returned %T", sub)
	}
	if n := rc.Reconnects(); n < 2 {
		t.Fatalf("expected at least 2 redials past the mute hub, got %d", n)
	}
	dialMu.Lock()
	n := dials
	dialMu.Unlock()
	if n < 3 {
		t.Fatalf("member never dialed past the mute listener: %d dials", n)
	}
}

// TestLegacyHubKeepsNoHistory: a hub only legacy clients (DialHub) have
// spoken to logs nothing, however much they publish — none of them can
// ask for a replay — and a resumable client that joins it later starts
// the log, gapless, at its join and receives every publication after
// it.
func TestLegacyHubKeepsNoHistory(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	legacy, err := DialHub(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := legacy.Publish(Message{From: 1, Payload: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, legacy, n)
	if got := hub.Stats().LogLen; got != 0 {
		t.Fatalf("a legacy-only hub logged %d publications, want 0", got)
	}

	late := DialHubResume(hub.Addr())
	defer late.Close()
	// The joiner's own first publication comes back as log entry 1: from
	// then on it is in the hub's total order.
	if err := late.Publish(Message{From: 2, Payload: strconv.Itoa(n)}); err != nil {
		t.Fatal(err)
	}
	if got := payloads(collect(t, late, 1)); got[0] != n {
		t.Fatalf("the joiner's first delivery is %v, want [%d]", got, n)
	}
	const m = 100
	for i := n + 1; i <= n+m; i++ {
		if err := legacy.Publish(Message{From: 1, Payload: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(from, to int) []int {
		var w []int
		for i := from; i <= to; i++ {
			w = append(w, i)
		}
		return w
	}
	if got := payloads(collect(t, legacy, m+1)); !slices.Equal(got, want(n, n+m)) {
		t.Fatalf("legacy subscriber saw %v", got)
	}
	if got := payloads(collect(t, late, m)); !slices.Equal(got, want(n+1, n+m)) {
		t.Fatalf("late joiner saw %v", got)
	}
	if r := late.(*resumeChannel).Reconnects(); r != 0 {
		t.Fatalf("late joiner redialed %d times: a hub log gap tears the connection down", r)
	}
	if got := hub.Stats().LogLen; got != m+1 {
		t.Fatalf("hub logged %d publications since the join, want %d", got, m+1)
	}
}
