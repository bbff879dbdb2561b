package bench

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name     string
		lats     []time.Duration
		p50, p99 time.Duration
	}{
		{"empty", nil, 0, 0},
		{"one", []time.Duration{3 * ms}, 3 * ms, 3 * ms},
		{"two", []time.Duration{9 * ms, 2 * ms}, 2 * ms, 2 * ms},
		{"hundred-and-one", func() []time.Duration {
			l := make([]time.Duration, 101)
			for i := range l {
				l[i] = time.Duration(100-i) * ms
			}
			return l
		}(), 50 * ms, 99 * ms},
	} {
		p50, p99 := percentiles(tc.lats)
		if p50 != tc.p50 || p99 != tc.p99 {
			t.Errorf("%s: p50=%v p99=%v, want %v %v", tc.name, p50, p99, tc.p50, tc.p99)
		}
	}
}

// TestLoadRunner pins the runner's contract: a closed loop issues each
// worker's ops with seq numbered from zero and times only the ops that
// ask for it, an open-loop latency is charged from the arrival's
// scheduled instant (so a server slower than the grid shows growing
// latency rather than a constant service time), arrivals a closed
// window cut off are reported as missed, and a worker error stops that
// worker alone.
func TestLoadRunner(t *testing.T) {
	var calls, seqSum atomic.Int64
	res := load{workers: 3, ops: 4, op: func(a arrival) (bool, error) {
		calls.Add(1)
		seqSum.Add(int64(a.seq))
		return a.seq%2 == 0, nil
	}}.run()
	if got := len(res.pooled()); got != 6 || calls.Load() != 12 || seqSum.Load() != 3*(0+1+2+3) {
		t.Fatalf("closed loop: %d timed of %d calls, seq sum %d; want 6 of 12, seq sum 18", got, calls.Load(), seqSum.Load())
	}

	const service, interval = 4 * time.Millisecond, time.Millisecond
	res = load{workers: 1, ops: 5, interval: interval, op: func(a arrival) (bool, error) {
		time.Sleep(service)
		return true, nil
	}}.run()
	lats := res.lats[0]
	if len(lats) != 5 || lats[4] < 5*service-4*interval {
		t.Fatalf("open loop: latencies %v do not charge the queueing behind a %v service on a %v grid", lats, service, interval)
	}

	var issued, missed atomic.Int64
	load{workers: 1, window: 10 * time.Millisecond, interval: time.Millisecond, op: func(a arrival) (bool, error) {
		if a.missed {
			missed.Add(1)
			return false, nil
		}
		issued.Add(1)
		time.Sleep(6 * time.Millisecond)
		return true, nil
	}}.run()
	if issued.Load() == 0 || missed.Load() == 0 || issued.Load()+missed.Load() < 10 {
		t.Fatalf("windowed open loop: %d issued + %d missed, want every one of the ~11 arrivals accounted for", issued.Load(), missed.Load())
	}

	boom := fmt.Errorf("boom")
	res = load{workers: 2, ops: 3, op: func(a arrival) (bool, error) {
		if a.worker == 1 && a.seq == 1 {
			return false, boom
		}
		return true, nil
	}}.run()
	if res.errs[0] != nil || res.err() == nil || len(res.lats[0]) != 3 || len(res.lats[1]) != 1 {
		t.Fatalf("error: errs %v lats %v, want worker 1 alone stopped at its second op", res.errs, res.lats)
	}
}
