package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
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
	if pt := newLoadPoint(nil, time.Second); pt != (loadPoint{}) {
		t.Errorf("empty sample reduced to %+v, want zeros", pt)
	}
}

// TestRunE13FewerOpsThanClients: OpsPerPoint below the client count
// leaves every client an empty timed window, which must reduce to a
// zero point, not index an empty sample.
func TestRunE13FewerOpsThanClients(t *testing.T) {
	d, err := RunE13(E13Config{DBSize: 50, OpsPerPoint: 2, ClientCounts: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Points {
		if p.Ops != 0 || p.OpsPerSec != 0 || p.P50Micros != 0 || p.P99Micros != 0 {
			t.Errorf("%s/%d: %+v, want a zero point", p.Scheme, p.Clients, p.loadPoint)
		}
	}
}

// TestLoadRunner pins the runner's contract: warm-up ops go through op
// but are not timed, an open-loop latency is charged from the arrival's
// scheduled instant (so a server slower than the grid shows growing
// latency rather than a constant service time), and arrivals a closed
// window cut off are reported as missed.
func TestLoadRunner(t *testing.T) {
	var calls atomic.Int64
	res := load{workers: 3, warmup: 2, ops: 4, op: func(a arrival) (bool, error) {
		calls.Add(1)
		return true, nil
	}}.run()
	if got := len(res.pooled()); got != 12 || calls.Load() != 18 {
		t.Fatalf("closed loop: %d timed of %d calls, want 12 of 18", got, calls.Load())
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

// keyPaths flattens a decoded JSON value into the set of its key paths,
// array elements included by index.
func keyPaths(prefix string, v any, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			into[prefix+"."+k] = true
			keyPaths(prefix+"."+k, e, into)
		}
	case []any:
		for i, e := range v {
			keyPaths(fmt.Sprintf("%s[%d]", prefix, i), e, into)
		}
	}
}

// TestRecordedSchemas is the schema pin for the checked-in runs: every
// BENCH_E*.json must decode into its E*Data with no unknown field and
// re-marshal to the same key set at every nesting level — a renamed or
// dropped field (an embedded point struct gone wrong) fails here.
func TestRecordedSchemas(t *testing.T) {
	// frozen lists keys a record keeps although their field is gone:
	// BENCH_E13.json's seed-transport speedup, whose P2-seed rows are
	// ordinary points (see EXPERIMENTS.md).
	frozen := map[string][]string{"E13": {"p2_speedup_vs_seed_at_16_clients"}}
	for id, data := range map[string]any{
		"E13": &E13Data{}, "E14": &E14Data{}, "E15": &E15Data{},
		"E17": &E17Data{}, "E18": &E18Data{}, "E21": &E21Data{},
	} {
		raw, err := os.ReadFile("../../BENCH_" + id + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var recorded map[string]any
		if err := json.Unmarshal(raw, &recorded); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, k := range frozen[id] {
			if _, ok := recorded[k]; !ok {
				t.Errorf("%s: frozen key %q is gone from the record", id, k)
			}
			delete(recorded, k)
		}
		raw, err = json.Marshal(recorded)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(data); err != nil {
			t.Errorf("%s: record does not decode into %T: %v", id, data, err)
			continue
		}
		var again bytes.Buffer
		if err := writeJSON(&again, data); err != nil {
			t.Fatal(err)
		}
		var rewritten map[string]any
		if err := json.Unmarshal(again.Bytes(), &rewritten); err != nil {
			t.Fatal(err)
		}
		want, got := map[string]bool{}, map[string]bool{}
		keyPaths("", recorded, want)
		keyPaths("", rewritten, got)
		var diff []string
		for k := range want {
			if !got[k] {
				diff = append(diff, "-"+k)
			}
		}
		for k := range got {
			if !want[k] {
				diff = append(diff, "+"+k)
			}
		}
		sort.Strings(diff)
		if len(diff) > 0 {
			t.Errorf("%s: re-marshaled key set differs from the record: %s", id, strings.Join(diff, " "))
		}
	}
}
