package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/binenc"
	"trustedcvs/internal/fault"
	"trustedcvs/internal/wire"
)

func TestSessionTableExactlyOnce(t *testing.T) {
	tbl := NewSessionTable()
	var applied atomic.Int64
	h := func(req any) (any, error) {
		applied.Add(1)
		return fmt.Sprintf("resp:%v", req), nil
	}
	r := &wire.SessionRequest{SID: 7, Seq: 1, Req: "a"}
	got1, err := tbl.Dispatch(r, h)
	if err != nil {
		t.Fatal(err)
	}
	// Retry of the same sequence replays the cache, no re-application.
	got2, err := tbl.Dispatch(r, h)
	if err != nil {
		t.Fatal(err)
	}
	if got1 != got2 || applied.Load() != 1 {
		t.Fatalf("retry re-applied: applied=%d resp1=%v resp2=%v", applied.Load(), got1, got2)
	}
	// Next sequence applies.
	if _, err := tbl.Dispatch(&wire.SessionRequest{SID: 7, Seq: 2, Req: "b"}, h); err != nil {
		t.Fatal(err)
	}
	if applied.Load() != 2 {
		t.Fatalf("applied=%d, want 2", applied.Load())
	}
	// Older cached sequences still replay (retries can arrive after
	// newer calls from a concurrent caller).
	if got, err := tbl.Dispatch(&wire.SessionRequest{SID: 7, Seq: 1, Req: "a"}, h); err != nil || got != got1 {
		t.Fatalf("old cached seq must replay: got=%v err=%v", got, err)
	}
	if applied.Load() != 2 {
		t.Fatalf("cached replay touched the handler: applied=%d", applied.Load())
	}
	// Out-of-order arrival of a new sequence applies on arrival.
	if _, err := tbl.Dispatch(&wire.SessionRequest{SID: 7, Seq: 9, Req: "z"}, h); err != nil {
		t.Fatalf("out-of-order new seq must apply: %v", err)
	}
	if applied.Load() != 3 {
		t.Fatalf("applied=%d, want 3", applied.Load())
	}
}

func TestSessionTablePruneHorizon(t *testing.T) {
	tbl := NewSessionTable()
	var applied atomic.Int64
	h := func(req any) (any, error) { applied.Add(1); return req, nil }
	// Push far past the retention window.
	last := uint64(sessionWindow + 50)
	for seq := uint64(1); seq <= last; seq++ {
		if _, err := tbl.Dispatch(&wire.SessionRequest{SID: 2, Seq: seq, Req: seq}, h); err != nil {
			t.Fatal(err)
		}
	}
	// A retry from below the horizon must be refused, never re-applied.
	before := applied.Load()
	if _, err := tbl.Dispatch(&wire.SessionRequest{SID: 2, Seq: 1, Req: uint64(1)}, h); err == nil {
		t.Fatal("pruned seq must be refused")
	}
	if applied.Load() != before {
		t.Fatal("pruned seq reached the handler")
	}
	// A recent one still replays from cache.
	if got, err := tbl.Dispatch(&wire.SessionRequest{SID: 2, Seq: last, Req: last}, h); err != nil || got != last {
		t.Fatalf("recent seq must replay: got=%v err=%v", got, err)
	}
	if applied.Load() != before {
		t.Fatal("cached replay reached the handler")
	}
}

func TestSessionTableCachesErrors(t *testing.T) {
	tbl := NewSessionTable()
	var applied atomic.Int64
	h := func(req any) (any, error) {
		applied.Add(1)
		return nil, errors.New("op rejected: ack is still pending")
	}
	r := &wire.SessionRequest{SID: 3, Seq: 1, Req: "x"}
	_, err1 := tbl.Dispatch(r, h)
	_, err2 := tbl.Dispatch(r, h)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("cached error mismatch: %v vs %v", err1, err2)
	}
	if applied.Load() != 1 {
		t.Fatalf("error retry re-applied: %d", applied.Load())
	}
}

func TestSessionTableFreezeRestore(t *testing.T) {
	tbl := NewSessionTable()
	h := func(req any) (any, error) { return req, nil }
	if _, err := tbl.Dispatch(&wire.SessionRequest{SID: 5, Seq: 1, Req: "v"}, h); err != nil {
		t.Fatal(err)
	}
	var snap *SessionsSnapshot
	tbl.Freeze(func(s *SessionsSnapshot) { snap = s })
	if len(snap.Sessions) != 1 || snap.Sessions[0].SID != 5 || snap.Sessions[0].High != 1 {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	// A fresh table restored from the snapshot replays the cached
	// response without re-applying — the crash/recovery contract.
	tbl2 := NewSessionTable()
	tbl2.RestoreSessions(snap)
	var applied atomic.Int64
	h2 := func(req any) (any, error) { applied.Add(1); return nil, errors.New("must not run") }
	got, err := tbl2.Dispatch(&wire.SessionRequest{SID: 5, Seq: 1, Req: "v"}, h2)
	if err != nil || got != "v" || applied.Load() != 0 {
		t.Fatalf("restored table failed to replay: got=%v err=%v applied=%d", got, err, applied.Load())
	}
}

func TestSessionTableFreezeQuiesces(t *testing.T) {
	tbl := NewSessionTable()
	inHandler := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = tbl.Dispatch(&wire.SessionRequest{SID: 1, Seq: 1, Req: "slow"}, func(any) (any, error) {
			close(inHandler)
			<-release
			return "done", nil
		})
	}()
	<-inHandler
	froze := make(chan *SessionsSnapshot, 1)
	go tbl.Freeze(func(s *SessionsSnapshot) { froze <- s })
	// Freeze must not complete while the dispatch is mid-application.
	select {
	case <-froze:
		t.Fatal("Freeze completed during in-flight dispatch: torn cut")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	snap := <-froze
	if len(snap.Sessions) != 1 || snap.Sessions[0].High != 1 {
		t.Fatalf("post-quiesce snapshot must include the completed op: %+v", snap)
	}
}

// startSessionServer runs a counting server with a session table and
// returns it plus the applied-op counter.
func startSessionServer(t *testing.T) (*Server, *atomic.Int64) {
	t.Helper()
	var applied atomic.Int64
	h := func(req any) (any, error) {
		applied.Add(1)
		if s, ok := req.(string); ok && strings.HasPrefix(s, "err:") {
			return nil, errors.New(strings.TrimPrefix(s, "err:"))
		}
		return req, nil
	}
	srv, err := ListenOpts("127.0.0.1:0", h, Options{Sessions: NewSessionTable()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, &applied
}

func TestResilientClientRetriesThroughFaults(t *testing.T) {
	srv, applied := startSessionServer(t)
	// Script resets early in the conversation; the client must retry
	// through them with no double application.
	inj := fault.NewInjector(fault.Config{Script: []fault.Event{
		{At: 2, Kind: fault.Reset},
		{At: 5, Kind: fault.Truncate},
	}})
	c := DialResilientFunc(fault.Dialer(srv.Addr(), inj), RetryPolicy{
		CallTimeout: 2 * time.Second, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	defer c.Close()
	const n = 10
	for i := 0; i < n; i++ {
		got, err := c.Call(fmt.Sprintf("op%d", i))
		if err != nil {
			t.Fatalf("op%d: %v", i, err)
		}
		if got != fmt.Sprintf("op%d", i) {
			t.Fatalf("op%d: got %v", i, got)
		}
	}
	if applied.Load() != n {
		t.Fatalf("server applied %d ops, want exactly %d (faults injected: %d)", applied.Load(), n, inj.Injected())
	}
	if inj.Injected() == 0 {
		t.Fatal("schedule injected nothing; test proved nothing")
	}
	if c.Reconnects() == 0 {
		t.Fatal("client never reconnected despite severed connections")
	}
}

func TestResilientClientDoesNotRetryRemoteErrors(t *testing.T) {
	srv, applied := startSessionServer(t)
	c := DialResilientFunc(func() (net.Conn, error) {
		return net.Dial("tcp", srv.Addr())
	}, RetryPolicy{})
	defer c.Close()
	_, err := c.Call("err:ack is still pending")
	if err == nil {
		t.Fatal("want remote error")
	}
	if !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("remote errors must carry wire.ErrRemote: %v", err)
	}
	if !strings.Contains(err.Error(), "ack is still pending") {
		t.Fatalf("server message text must survive: %v", err)
	}
	if applied.Load() != 1 {
		t.Fatalf("remote error was retried: applied=%d", applied.Load())
	}
}

func TestResilientClientSurvivesServerRestart(t *testing.T) {
	var applied atomic.Int64
	h := func(req any) (any, error) { applied.Add(1); return req, nil }
	tbl := NewSessionTable()
	srv, err := ListenOpts("127.0.0.1:0", h, Options{Sessions: tbl})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := DialResilientFunc(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	}, RetryPolicy{CallTimeout: time.Second, MaxAttempts: 20, BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond})
	defer c.Close()
	if _, err := c.Call("before"); err != nil {
		t.Fatal(err)
	}

	// Kill: checkpoint the session table, sever everything.
	var snap *SessionsSnapshot
	tbl.Freeze(func(s *SessionsSnapshot) { snap = s })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Client calls during the outage retry in the background.
	var wg sync.WaitGroup
	results := make([]error, 5)
	wg.Add(len(results))
	for i := range results {
		go func(i int) {
			defer wg.Done()
			_, results[i] = c.Call(fmt.Sprintf("during%d", i))
		}(i)
	}

	time.Sleep(100 * time.Millisecond)
	// Restart on the same address with the restored session table.
	tbl2 := NewSessionTable()
	tbl2.RestoreSessions(snap)
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ServeListener(lis, h, Options{Sessions: tbl2})
	defer srv2.Close()

	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("during%d failed across restart: %v", i, err)
		}
	}
	if _, err := c.Call("after"); err != nil {
		t.Fatal(err)
	}
	// 1 before + 5 during + 1 after, each applied exactly once.
	if applied.Load() != 7 {
		t.Fatalf("applied=%d, want 7", applied.Load())
	}
}

func TestServerIdleTimeoutFreesConnection(t *testing.T) {
	srv, err := ListenOpts("127.0.0.1:0", func(req any) (any, error) { return req, nil },
		Options{IdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the server must sever the idle connection.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept an idle connection past the idle timeout")
	}
}

func TestServerShutdownDrains(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, err := ListenOpts("127.0.0.1:0", func(req any) (any, error) {
		close(entered)
		<-release
		return "done", nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make(chan error, 1)
	go func() {
		resp, err := c.Call("slow")
		if err == nil && resp != "done" {
			err = fmt.Errorf("bad resp %v", resp)
		}
		got <- err
	}()
	<-entered
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("in-flight call must complete through graceful shutdown: %v", err)
	}
}

func TestResilientClientFailsOverAcrossEndpoints(t *testing.T) {
	// Two session-aware servers sharing one session table lineage: the
	// backup restores the primary's frozen sessions, as a promoted
	// witness would.
	var applied atomic.Int64
	h := func(req any) (any, error) { applied.Add(1); return req, nil }
	tbl := NewSessionTable()
	primary, err := ListenOpts("127.0.0.1:0", h, Options{Sessions: tbl})
	if err != nil {
		t.Fatal(err)
	}

	c := DialResilientEndpoints([]Endpoint{
		{Name: "primary", Dial: func() (net.Conn, error) { return net.DialTimeout("tcp", primary.Addr(), time.Second) }},
	}, RetryPolicy{CallTimeout: time.Second, MaxAttempts: 20, BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond})
	defer c.Close()
	if _, err := c.Call("before"); err != nil {
		t.Fatal(err)
	}

	// Promote: freeze sessions, kill the primary, start the backup with
	// the restored table, and register it as a second endpoint.
	var snap *SessionsSnapshot
	tbl.Freeze(func(s *SessionsSnapshot) { snap = s })
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	tbl2 := NewSessionTable()
	tbl2.RestoreSessions(snap)
	backup, err := ListenOpts("127.0.0.1:0", h, Options{Sessions: tbl2})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	c.mu.Lock()
	c.endpoints = append(c.endpoints, &endpointState{ep: Endpoint{
		Name: "backup",
		Dial: func() (net.Conn, error) { return net.DialTimeout("tcp", backup.Addr(), time.Second) },
	}, brk: NewBreaker(c.pol.Breaker)})
	c.mu.Unlock()

	// Calls against the dead primary must fail over to the backup with
	// the same session identity.
	for i := 0; i < 5; i++ {
		if _, err := c.Call(fmt.Sprintf("after%d", i)); err != nil {
			t.Fatalf("after%d: %v", i, err)
		}
	}
	if applied.Load() != 6 {
		t.Fatalf("applied=%d, want 6 (exactly-once across failover)", applied.Load())
	}
	if c.Failovers() == 0 {
		t.Fatal("client reports no failover despite primary death")
	}
	if got := c.EndpointName(); got != "backup" {
		t.Fatalf("current endpoint = %q, want backup", got)
	}
	if h := c.Health(); h["backup"] <= h["primary"] {
		t.Fatalf("health scoring did not demote the dead primary: %v", h)
	}
}

func TestResilientClientQuarantine(t *testing.T) {
	var applied atomic.Int64
	h := func(req any) (any, error) { applied.Add(1); return req, nil }
	a, err := ListenOpts("127.0.0.1:0", h, Options{Sessions: NewSessionTable()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenOpts("127.0.0.1:0", h, Options{Sessions: NewSessionTable()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dialTo := func(addr string) func() (net.Conn, error) {
		return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) }
	}
	c := DialResilientEndpoints([]Endpoint{
		{Name: "a", Dial: dialTo(a.Addr())},
		{Name: "b", Dial: dialTo(b.Addr())},
	}, RetryPolicy{CallTimeout: time.Second, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	defer c.Close()
	if _, err := c.Call("x"); err != nil {
		t.Fatal(err)
	}
	if got := c.EndpointName(); got != "a" {
		t.Fatalf("preference order broken: on %q", got)
	}
	// Quarantining the live endpoint severs it and routes to b.
	c.Quarantine("a")
	if _, err := c.Call("y"); err != nil {
		t.Fatal(err)
	}
	if got := c.EndpointName(); got != "b" {
		t.Fatalf("quarantined endpoint still used: on %q", got)
	}
	if _, ok := c.Health()["a"]; ok {
		t.Fatal("quarantined endpoint still reported healthy")
	}
	// Quarantining everything fails fast, no blind retries.
	c.Quarantine("b")
	start := time.Now()
	if _, err := c.Call("z"); !errors.Is(err, ErrAllQuarantined) {
		t.Fatalf("want ErrAllQuarantined, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("all-quarantined call burned the retry budget instead of failing fast")
	}
}

// TestResilientBackoffJitterDecorrelates is the reconnect-stampede
// regression (satellite fix): two clients with distinct seeds facing
// the same dead endpoint must not sleep identical schedules.
func TestResilientBackoffJitterDecorrelates(t *testing.T) {
	down := func() (net.Conn, error) { return nil, errors.New("refused") }
	// Pull the jittered delays straight from each client's backoff
	// stream (exactly what Call draws from) instead of timing sleeps.
	schedule := func(seed uint64) []time.Duration {
		c := DialResilientFunc(down, RetryPolicy{
			CallTimeout: time.Second, MaxAttempts: 6,
			BackoffMin: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
			JitterSeed: seed,
		})
		defer c.Close()
		bo := backoff.New(backoff.Policy{Min: c.pol.BackoffMin, Max: c.pol.BackoffMax}, c.src)
		var ds []time.Duration
		for i := 0; i < 8; i++ {
			ds = append(ds, bo.Next())
		}
		return ds
	}
	a, b := schedule(1), schedule(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("two differently-seeded clients produced identical backoff schedules")
	}
}

// TestSessionsSnapshotDeterministic: Freeze walks two maps, and map
// order must not reach the checkpoint — the same table snapshots to the
// same bytes every time, sessions in SID order and outcomes in Seq
// order, and those bytes decode and re-encode to themselves.
func TestSessionsSnapshotDeterministic(t *testing.T) {
	tbl := NewSessionTable()
	h := func(req any) (any, error) {
		if s := req.(string); strings.HasPrefix(s, "err:") {
			return nil, errors.New(s)
		}
		return req, nil
	}
	for sid := uint64(40); sid >= 4; sid -= 3 {
		for _, seq := range []uint64{5, 2, 9, 1, 7} {
			req := fmt.Sprintf("s%d-%d", sid, seq)
			if seq == 2 {
				req = "err:" + req
			}
			_, _ = tbl.Dispatch(&wire.SessionRequest{SID: sid, Seq: seq, Req: req}, h)
		}
	}
	encode := func() []byte {
		var b []byte
		tbl.Freeze(func(s *SessionsSnapshot) {
			var err error
			if b, err = AppendSnapshot(nil, s); err != nil {
				t.Fatal(err)
			}
			for i, st := range s.Sessions {
				if i > 0 && s.Sessions[i-1].SID >= st.SID {
					t.Fatalf("sessions out of SID order at %d", i)
				}
				for j := 1; j < len(st.Ops); j++ {
					if st.Ops[j-1].Seq >= st.Ops[j].Seq {
						t.Fatalf("session %d: outcomes out of Seq order", st.SID)
					}
				}
			}
		})
		return b
	}
	first := encode()
	for i := 0; i < 20; i++ {
		if again := encode(); !bytes.Equal(again, first) {
			t.Fatalf("snapshot %d of the same frozen table differs from the first", i+2)
		}
	}

	r := binenc.NewReader(first)
	back := ReadSnapshot(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if again, err := AppendSnapshot(nil, back); err != nil || !bytes.Equal(again, first) {
		t.Fatalf("decode + encode is not the identity (err %v)", err)
	}
	tbl2 := NewSessionTable()
	tbl2.RestoreSessions(back)
	if got, err := tbl2.Dispatch(&wire.SessionRequest{SID: 40, Seq: 9, Req: "x"}, nil); err != nil || got != "s40-9" {
		t.Fatalf("restored table replays (%v, %v), want the cached response", got, err)
	}
	if _, err := tbl2.Dispatch(&wire.SessionRequest{SID: 40, Seq: 2, Req: "x"}, nil); err == nil || err.Error() != "err:s40-2" {
		t.Fatalf("restored table replays error %v, want the cached one", err)
	}
	if _, err := AppendSnapshot(nil, &SessionsSnapshot{Sessions: []SessionState{{SID: 1, High: 1, Ops: []OpOutcome{{Seq: 1, Resp: struct{}{}}}}}}); err == nil {
		t.Fatal("an unregistered response type was encoded")
	}
}

// TestSessionsSnapshotHostileCounts: session and outcome counts far
// beyond the bytes present are refused before anything is sized by
// them.
func TestSessionsSnapshotHostileCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, b := range map[string][]byte{
		"sessions": huge,
		"outcomes": append([]byte{1, 7, 1, 0}, huge...),
		"trailing": {0, 0},
		"bad bool": {1, 7, 1, 0, 1, 1, 2},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := binenc.NewReader(b)
		ReadSnapshot(r)
		err := r.Close()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, binenc.ErrMalformed) {
			t.Errorf("%s: Close = %v, want ErrMalformed", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10+128*uint64(len(b)) {
			t.Errorf("%s: the refusal allocated %d bytes for %d of input", name, got, len(b))
		}
	}
}
