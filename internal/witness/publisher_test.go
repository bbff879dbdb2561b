package witness

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trustedcvs/internal/transport"
)

// TestLaneBreakerDeadWitnessOneDialPerCooldown: a lane whose witness
// is down trips its breaker after five failed deliveries, and from then
// on costs one probe dial per (jittered) cooldown — never a fresh
// five-dial streak — while LaneStates reports the lane open or
// half-open the whole time. The first probe after the witness returns
// delivers and closes the lane.
func TestLaneBreakerDeadWitnessOneDialPerCooldown(t *testing.T) {
	const cooldown = 40 * time.Millisecond
	saved := laneBreaker
	laneBreaker.Cooldown = cooldown
	t.Cleanup(func() { laneBreaker = saved })

	n := NewNode("w1")
	var down atomic.Bool
	down.Store(true)
	var mu sync.Mutex
	var dials []time.Time
	p := NewPublisher(testIdentity(t, "primary", 1), 0, 0)
	p.AddWitness("w1", func() (transport.Caller, error) {
		mu.Lock()
		dials = append(dials, time.Now())
		mu.Unlock()
		if down.Load() {
			return nil, errors.New("test: witness down")
		}
		return transport.NewInproc(n.Handler()), nil
	})
	ctr := uint64(0)
	offer := func() {
		ctr++
		p.CommitNow(ctr, root(byte(ctr)))
		p.Flush()
		time.Sleep(time.Millisecond)
	}
	dialCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(dials)
	}

	for _, _, tripped := p.FanoutStats(); tripped == 0; _, _, tripped = p.FanoutStats() {
		offer()
	}
	if got := dialCount(); got != laneBreaker.Threshold {
		t.Fatalf("lane tripped after %d dials, want %d", got, laneBreaker.Threshold)
	}

	// Three of the longest jittered cooldowns with the witness down.
	for end := time.Now().Add(3 * 3 * cooldown / 2); time.Now().Before(end); {
		offer()
		if st := p.LaneStates()["w1"]; st != "open" && st != "half-open" {
			t.Fatalf("lane reads %q while its witness is down", st)
		}
	}
	mu.Lock()
	after := dials[laneBreaker.Threshold-1:]
	mu.Unlock()
	for i := 1; i < len(after); i++ {
		// A cooldown is jittered into [c/2, 3c/2): two dials closer
		// than c/2 mean a dial went out while the breaker was open.
		if gap := after[i].Sub(after[i-1]); gap < cooldown/2 {
			t.Fatalf("dials %d and %d after the trip are %v apart, under the shortest cooldown %v", i-1, i, gap, cooldown/2)
		}
	}
	if probes := len(after) - 1; probes < 2 {
		t.Fatalf("%d probes across three cooldowns, want at least 2", probes)
	}
	if delivered, _, _ := p.FanoutStats(); delivered != 0 {
		t.Fatalf("delivered %d commitments to a dead witness", delivered)
	}

	down.Store(false)
	before := dialCount()
	for delivered, _, _ := p.FanoutStats(); delivered == 0; delivered, _, _ = p.FanoutStats() {
		offer()
	}
	if got := dialCount() - before; got != 1 {
		t.Fatalf("recovery took %d dials, want the one probe", got)
	}
	if st := p.LaneStates()["w1"]; st != "closed" {
		t.Fatalf("lane reads %q after a successful probe, want closed", st)
	}
	offer()
	if delivered, _, _ := p.FanoutStats(); delivered != 2 {
		t.Fatalf("closed lane delivered %d of 2 commitments", delivered)
	}
	if latest := n.Latest("primary"); latest == nil || latest.Ctr != ctr {
		t.Fatalf("witness holds %+v, want the commitment at ctr %d", latest, ctr)
	}
}

// TestNewPublisherCadenceRule: one rule sets the commitment cadence
// and its alignment from the caller's cadence and the deployment's
// epoch length. A synchronous deployment (epochLen 0) keeps a drifting
// cadence however often it commits, and an epoch-audit one aligns to
// the epoch grid, by default at one commitment per epoch.
func TestNewPublisherCadenceRule(t *testing.T) {
	id := testIdentity(t, "primary", 1)
	for _, tc := range []struct {
		name            string
		every, epochLen uint64
		cadence         uint64
		aligned         bool
	}{
		// Also tcvs-server -audit sync -epoch-len 64: there the flag
		// sizes the op journal's batch, and the publisher gets no epoch.
		{"sync default", 0, 0, DefaultCommitEvery, false},
		{"sync explicit", 4, 0, 4, false},
		{"epoch default", 0, 32, 32, true},
		{"epoch explicit", 4, 32, 4, true},
		{"epoch never", 1 << 60, 32, 1 << 60, true},
	} {
		p := NewPublisher(id, tc.every, tc.epochLen)
		if p.every != tc.cadence || p.aligned != tc.aligned {
			t.Errorf("%s: NewPublisher(%d, %d) cadence %d aligned %v, want %d %v",
				tc.name, tc.every, tc.epochLen, p.every, p.aligned, tc.cadence, tc.aligned)
		}
	}
}
