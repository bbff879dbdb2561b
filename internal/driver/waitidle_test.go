package driver

import (
	"sort"
	"testing"
	"time"

	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/session"
)

// idleClient is user 0 of two, on a hub no peer listens to.
func idleClient(hub *broadcast.Hub) *Client {
	return newClient(proto2.NewUser(0, digest.Digest{}, 1<<62), nil, hub.Join(), 2)
}

// openRound registers round r of initiator 1 on c, as a delivered
// announcement does.
func openRound(c *Client, r uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sess.OnAnnounce(&core.SyncRequest{From: 1, Round: r})
}

// peerReport is user 1's report for round r of initiator 1, as a peer
// with no operations sends it.
func peerReport(r uint64) *session.Report {
	two := proto2.NewUser(1, digest.Digest{}, 1<<62).SyncReport()
	return &session.Report{Initiator: 1, Round: r, ReportII: &two}
}

// TestWaitIdleWakesOnRoundClose: sync-mode WaitIdle sleeps on the
// client's condition variable, so it returns as soon as the last open
// round closes rather than at the next poll tick. The median over
// several trials keeps one scheduler hiccup from failing the test; the
// 5 ms poll this replaced had a median lag of 2.5 ms.
func TestWaitIdleWakesOnRoundClose(t *testing.T) {
	const trials = 9
	lags := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		hub := broadcast.NewHub()
		c := idleClient(hub)
		r := uint64(i + 1)
		openRound(c, r)
		c.mu.Lock()
		own := c.sess.SyncReport()
		c.mu.Unlock()
		own.Initiator, own.Round = 1, r
		c.onReport(own) // the receive loop may deliver it too: one per user counts
		returned := make(chan time.Time, 1)
		errc := make(chan error, 1)
		go func() {
			err := c.WaitIdle(5 * time.Second)
			returned <- time.Now()
			errc <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the waiter park
		closedAt := time.Now()
		c.onReport(peerReport(r)) // the nth report closes the round
		lag := (<-returned).Sub(closedAt)
		hub.Close()
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
	hub := broadcast.NewHub()
	defer hub.Close()
	c := idleClient(hub)
	openRound(c, 1)
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
