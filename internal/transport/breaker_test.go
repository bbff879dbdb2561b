package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/wire"
)

// TestBreakerStateMachine walks the closed → open → half-open cycle
// directly: failures below threshold leave the breaker closed, the
// threshold opens it with a jittered cooldown in [c/2, 3c/2), a failed
// probe re-opens immediately, and a successful probe closes it and
// resets the failure streak.
func TestBreakerStateMachine(t *testing.T) {
	src := backoff.NewSeededSource(42)
	const cooldown = 100 * time.Millisecond
	b := NewBreaker(BreakerPolicy{Threshold: 3, Cooldown: cooldown})
	now := time.Unix(1000, 0)

	b.Failure(now, src)
	b.Failure(now, src)
	if b.state != BreakerClosed {
		t.Fatalf("state = %v after 2/3 failures, want closed", b.state)
	}
	b.Failure(now, src)
	if b.state != BreakerOpen || b.opens != 1 {
		t.Fatalf("state/opens = %v/%d after threshold, want open/1", b.state, b.opens)
	}
	if d := b.probeAt.Sub(now); d < cooldown/2 || d >= 3*cooldown/2 {
		t.Fatalf("cooldown jitter %v outside [%v, %v)", d, cooldown/2, 3*cooldown/2)
	}
	if b.ProbeReady(now) {
		t.Fatal("probe ready immediately after opening")
	}
	later := now.Add(3 * cooldown / 2)
	if !b.ProbeReady(later) {
		t.Fatal("probe not ready after the max jittered cooldown")
	}
	b.ClaimProbe()
	if b.state != BreakerHalfOpen || !b.probing {
		t.Fatalf("state = %v after claim, want half-open with the probe slot taken", b.state)
	}
	// A failed probe re-opens at once — one failure, not a new streak.
	b.Failure(later, src)
	if b.state != BreakerOpen || b.opens != 2 || b.probing {
		t.Fatalf("state/opens/probing = %v/%d/%v after failed probe, want open/2/false", b.state, b.opens, b.probing)
	}
	later = later.Add(3 * cooldown / 2)
	if !b.ProbeReady(later) {
		t.Fatal("second probe never became ready")
	}
	b.ClaimProbe()
	b.Success()
	if b.state != BreakerClosed || b.fails != 0 || b.probing {
		t.Fatalf("state/fails/probing = %v/%d/%v after successful probe, want closed/0/false", b.state, b.fails, b.probing)
	}
}

// sheddingServer is a session-aware server whose handler refuses every
// request with the typed overload sentinel, counting deliveries.
func sheddingServer(t *testing.T) (*Server, *atomic.Int64) {
	t.Helper()
	var seen atomic.Int64
	srv, err := ListenOpts("127.0.0.1:0", func(req any) (any, error) {
		seen.Add(1)
		return nil, fmt.Errorf("test: synthetic shed%w", admErr{wire.ErrOverloaded})
	}, Options{Sessions: NewSessionTable()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, &seen
}

// okServer is a session-aware server that answers every request with
// tag:req, counting deliveries.
func okServer(t *testing.T, tag string) (*Server, *atomic.Int64) {
	t.Helper()
	var seen atomic.Int64
	srv, err := ListenOpts("127.0.0.1:0", func(req any) (any, error) {
		seen.Add(1)
		return fmt.Sprintf("%s:%v", tag, req), nil
	}, Options{Sessions: NewSessionTable()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, &seen
}

// TestBreakerSurfacesOverloadOnSoleEndpoint: with nowhere to fail over
// to, a typed shed is surfaced to the caller immediately — one server
// round trip per Call, no retry hammering the server that just shed us.
func TestBreakerSurfacesOverloadOnSoleEndpoint(t *testing.T) {
	srv, seen := sheddingServer(t)
	c := DialResilient(srv.Addr(), RetryPolicy{
		MaxAttempts: 8, BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		Breaker: BreakerPolicy{Threshold: 2, Cooldown: 50 * time.Millisecond},
	})
	defer c.Close()
	const n = 4
	for i := 0; i < n; i++ {
		_, err := c.Call(fmt.Sprintf("op%d", i))
		if !errors.Is(err, wire.ErrOverloaded) {
			t.Fatalf("op%d got %v, want typed wire.ErrOverloaded surfaced", i, err)
		}
	}
	if got := seen.Load(); got != n {
		t.Fatalf("server saw %d requests for %d calls — overload was retried against the sole endpoint", got, n)
	}
	if got := c.Overloads(); got != n {
		t.Fatalf("client absorbed %d overloads, want %d", got, n)
	}
}

// TestBreakerFailsOverOnOverload: a shed from the preferred endpoint
// with a healthy alternative available rotates the call there instead
// of surfacing the refusal.
func TestBreakerFailsOverOnOverload(t *testing.T) {
	shedSrv, shedSeen := sheddingServer(t)
	okSrv, okSeen := okServer(t, "B")
	dial := func(addr string) func() (net.Conn, error) {
		return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) }
	}
	c := DialResilientEndpoints([]Endpoint{
		{Name: "A", Dial: dial(shedSrv.Addr())},
		{Name: "B", Dial: dial(okSrv.Addr())},
	}, RetryPolicy{
		MaxAttempts: 8, BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		Breaker: BreakerPolicy{Threshold: 2, Cooldown: time.Minute},
	})
	defer c.Close()
	resp, err := c.Call("op")
	if err != nil {
		t.Fatalf("call across failover: %v", err)
	}
	if resp != "B:op" {
		t.Fatalf("resp = %v, want the healthy endpoint's answer", resp)
	}
	if shedSeen.Load() != 1 || okSeen.Load() != 1 {
		t.Fatalf("A/B saw %d/%d requests, want 1/1 (one shed, one failover delivery)",
			shedSeen.Load(), okSeen.Load())
	}
	if c.EndpointName() != "B" {
		t.Fatalf("client still pinned to %s after the shed", c.EndpointName())
	}
}

// TestBreakerProbeStormBounded is the half-open guarantee under
// concurrency (run with -race by CI): 64 callers hammer one endpoint
// through an outage; once the breaker opens, redials are paced by the
// cooldown and — at recovery — exactly one claimed probe reconnects,
// with every caller then riding the probe's connection. The dial count
// stays far below the caller count; without the breaker each caller
// would redial on every backoff tick.
func TestBreakerProbeStormBounded(t *testing.T) {
	var applied atomic.Int64
	tbl := NewSessionTable()
	h := func(req any) (any, error) { applied.Add(1); return req, nil }
	srv, err := ListenOpts("127.0.0.1:0", h, Options{Sessions: tbl})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	var down atomic.Bool
	var dials atomic.Int64
	c := DialResilientFunc(func() (net.Conn, error) {
		dials.Add(1)
		if down.Load() {
			return nil, errors.New("test: endpoint down")
		}
		return net.DialTimeout("tcp", addr, time.Second)
	}, RetryPolicy{
		CallTimeout: 2 * time.Second, MaxAttempts: 100,
		BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		JitterSeed: 7,
		Breaker:    BreakerPolicy{Threshold: 1, Cooldown: 40 * time.Millisecond},
	})
	defer c.Close()

	down.Store(true)
	const callers = 64
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Call(fmt.Sprintf("op%d", i))
		}(i)
	}
	time.Sleep(150 * time.Millisecond)
	dialsDuringOutage := dials.Load()
	down.Store(false)
	wg.Wait()
	srv.Close()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d failed across the outage: %v", i, err)
		}
	}
	if applied.Load() != callers {
		t.Fatalf("applied = %d, want exactly %d", applied.Load(), callers)
	}
	// 150ms outage / >=20ms jittered cooldown: at most ~8 paced probes
	// plus the initial pre-open dial. 16 leaves slack for scheduling;
	// an unbounded storm would be hundreds (64 callers x backoff ticks).
	if dialsDuringOutage > 16 {
		t.Fatalf("outage produced %d dials from %d callers — probe pacing failed", dialsDuringOutage, callers)
	}
	if total := dials.Load(); total > dialsDuringOutage+4 {
		t.Fatalf("recovery produced %d extra dials, want a single claimed probe (plus slack)", total-dialsDuringOutage)
	}
	if st := c.BreakerStates(); st["endpoint"] != "closed" {
		t.Fatalf("breaker = %q after recovery, want closed", st["endpoint"])
	}
}

// TestResilientOverloadBudgetExhaustion: the end-to-end budget cuts
// retries off with the typed deadline error instead of burning the full
// attempt schedule against a dead endpoint.
func TestResilientOverloadBudgetExhaustion(t *testing.T) {
	c := DialResilientFunc(func() (net.Conn, error) {
		return nil, errors.New("test: endpoint never comes up")
	}, RetryPolicy{
		CallTimeout: time.Second, MaxAttempts: 1000,
		BackoffMin: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		Budget: 80 * time.Millisecond,
	})
	defer c.Close()
	start := time.Now()
	_, err := c.Call("op")
	elapsed := time.Since(start)
	if !errors.Is(err, wire.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want typed wire.ErrDeadlineExceeded from budget exhaustion", err)
	}
	if elapsed < 60*time.Millisecond || elapsed > time.Second {
		t.Fatalf("budget of 80ms cut off after %v", elapsed)
	}
}

// TestBreakerCooldownKeepsCallerPatience: an attempt every breaker
// refuses waits for the probe instead of burning the rest of the
// attempt budget inside the cooldown. Six attempts at a millisecond of
// backoff would all be spent long before this endpoint returns; the
// breaker-paced call reaches it.
func TestBreakerCooldownKeepsCallerPatience(t *testing.T) {
	srv, seen := okServer(t, "up")
	upAt := time.Now().Add(60 * time.Millisecond)
	var dials atomic.Int64
	c := DialResilientFunc(func() (net.Conn, error) {
		dials.Add(1)
		if time.Now().Before(upAt) {
			return nil, errors.New("test: endpoint down")
		}
		return net.DialTimeout("tcp", srv.Addr(), time.Second)
	}, RetryPolicy{
		MaxAttempts: 6, BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		JitterSeed: 3,
		Breaker:    BreakerPolicy{Threshold: 2, Cooldown: 100 * time.Millisecond},
	})
	defer c.Close()
	resp, err := c.Call("op")
	if err != nil {
		t.Fatalf("call across the cooldown: %v", err)
	}
	if resp != "up:op" || seen.Load() != 1 {
		t.Fatalf("resp %v after %d deliveries, want the one answer", resp, seen.Load())
	}
	if d := dials.Load(); d > 4 {
		t.Fatalf("%d dials for one call across one cooldown, want the threshold's 2 plus probes", d)
	}
}
