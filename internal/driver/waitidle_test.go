package driver

import (
	"sort"
	"testing"
	"time"

	"trustedcvs/internal/server"
)

// TestWaitIdleWakesOnRoundClose: sync-mode WaitIdle sleeps on the
// client's condition variable, so it returns as soon as the last open
// round closes rather than at the next poll tick. The median over
// several trials keeps one scheduler hiccup from failing the test; the
// 5 ms poll this replaced had a median lag of 2.5 ms.
func TestWaitIdleWakesOnRoundClose(t *testing.T) {
	const trials = 9
	lags := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		c := newClient(server.P2, nil, nil, 2)
		key := roundKey{initiator: 1, round: uint64(i + 1)}
		c.rounds[key] = &roundState{}
		returned := make(chan time.Time, 1)
		errc := make(chan error, 1)
		go func() {
			err := c.WaitIdle(5 * time.Second)
			returned <- time.Now()
			errc <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the waiter park
		c.mu.Lock()
		delete(c.rounds, key)
		closedAt := time.Now()
		c.cond.Broadcast()
		c.mu.Unlock()
		lag := (<-returned).Sub(closedAt)
		if err := <-errc; err != nil {
			t.Fatalf("trial %d: WaitIdle: %v", i, err)
		}
		lags = append(lags, lag)
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if median := lags[trials/2]; median > time.Millisecond {
		t.Fatalf("WaitIdle returned a median %v after the round closed (all: %v), want <= 1ms", median, lags)
	}
}

// TestWaitIdleHonoursTimeout: with a round that never closes, WaitIdle
// gives up at the deadline — not before, and without anyone else
// broadcasting.
func TestWaitIdleHonoursTimeout(t *testing.T) {
	c := newClient(server.P2, nil, nil, 2)
	c.rounds[roundKey{initiator: 1, round: 1}] = &roundState{}
	const timeout = 40 * time.Millisecond
	start := time.Now()
	err := c.WaitIdle(timeout)
	took := time.Since(start)
	if err == nil || err.Error() != "driver: WaitIdle timeout" {
		t.Fatalf("WaitIdle = %v, want the timeout error", err)
	}
	if took < timeout || took > timeout+2*time.Second {
		t.Fatalf("WaitIdle gave up after %v, want about %v", took, timeout)
	}
}
