package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs"
)

// smokeDiv shrinks every workload to 1/200 of its full size.
const smokeDiv = 200

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []declared `json:"workloads"`
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func smokeConfig(t *testing.T, w workload, seed int64, trace bool) config {
	return config{w: w, div: smokeDiv, seed: seed, seconds: 0.001, trace: trace, out: t.TempDir()}
}

// checkMetrics asserts the result carries exactly the declared metrics,
// each with its declared unit and a finite value.
func checkMetrics(t *testing.T, res result, want []declared) {
	t.Helper()
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result line: %v", err)
	}
}

// TestSmoke runs every workload untraced and traced at 1/200 scale and
// checks the result lines against BENCHMARK.json, the correctness gate,
// and the span files.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, d := range b.Workloads {
		w, ok := findWorkload(d.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", d.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := run(smokeConfig(t, w, 1, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("untraced: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, b.EndToEnd)

			cfg := smokeConfig(t, w, 1, true)
			res, err = run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("traced: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, b.PerLayer)
			checkSpanFile(t, filepath.Join(cfg.out, w.name+".trace.jsonl"))
		})
	}
}

// checkSpanFile asserts every span is a driver.do root or names a
// parent that is in the file, and that all three layers appear.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	ids := make(map[uint64]bool, len(spans))
	names := make(map[string]int)
	for _, s := range spans {
		ids[s.ID] = true
		names[s.Name]++
	}
	for _, s := range spans {
		if s.Parent == 0 && s.Name != spanDo {
			t.Errorf("span %d (%s) has no parent and is not a root", s.ID, s.Name)
		}
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s) names parent %d, which was not recorded", s.ID, s.Name, s.Parent)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	if names[spanDo] == 0 || names[spanCall] < names[spanDo] || names[spanHandle] != names[spanCall] {
		t.Errorf("span counts %v: want one call or more per operation and one handle per call", names)
	}
}

// TestRepeatable checks the counts that must not depend on timing:
// the same seed gives the same wire bytes and (within the runtime's own
// background allocations) the same allocations per operation, and
// another seed changes the bytes only where it changes the stream.
func TestRepeatable(t *testing.T) {
	probe := func(name string, seed int64) map[string]metric {
		w, _ := findWorkload(name)
		cfg := smokeConfig(t, w, seed, true)
		sz := cfg.sizing()
		sp, err := stageProbes(cfg, generate(w, sz, seed), sz)
		if err != nil {
			t.Fatal(err)
		}
		return sp.metrics
	}
	a, b, c := probe("kv-write", 1), probe("kv-write", 1), probe("kv-write", 2)
	for _, name := range []string{"wire.req_bytes", "wire.resp_bytes", "merkle.vo_digests"} {
		if a[name] != b[name] {
			t.Errorf("%s differs between two runs of seed 1: %v and %v", name, a[name], b[name])
		}
	}
	if a["wire.req_bytes"] == c["wire.req_bytes"] {
		t.Errorf("kv-write wire.req_bytes is %v for seeds 1 and 2, whose value lengths differ", a["wire.req_bytes"])
	}
	// Every read request names one key of the same length.
	if r1, r2 := probe("kv-read", 1), probe("kv-read", 2); r1["wire.req_bytes"] != r2["wire.req_bytes"] {
		t.Errorf("kv-read wire.req_bytes differs between seeds: %v and %v", r1["wire.req_bytes"], r2["wire.req_bytes"])
	}

	w, _ := findWorkload("kv-write")
	allocs := func() float64 {
		res, err := run(smokeConfig(t, w, 1, false), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics["allocs_per_op"].Value
	}
	if x, y := allocs(), allocs(); math.Abs(x-y)/x > 0.03 {
		t.Errorf("allocs_per_op %v and %v differ by more than 3%% for one seed", x, y)
	}
}

// TestTracedStackAnswersLikeCluster drives NewLocalCluster and the
// rebuilt, traced stack with one seeded stream each and compares every
// answer.
func TestTracedStackAnswersLikeCluster(t *testing.T) {
	for _, name := range []string{"kv-write", "cvs-mixed"} {
		w, _ := findWorkload(name)
		sz := w.full.scaled(smokeDiv)
		st := generate(w, sz, 7)
		cluster, err := newCluster(clusterConfig(w, ""))
		if err != nil {
			t.Fatal(err)
		}
		want := answers(t, cluster, w, st)
		cluster.Close()
		traced, err := newStack(stackOpts{syncEvery: syncEvery, rec: newRecorder(sz.ops)})
		if err != nil {
			t.Fatal(err)
		}
		got := answers(t, traced, w, st)
		traced.Close()
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers from the traced stack, %d from the cluster", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: answer %d differs:\ntraced  %s\ncluster %s", name, i, got[i], want[i])
			}
		}
	}
}

// answers preloads sys and issues both users' streams in turn,
// returning every answer in a comparable form.
func answers(t *testing.T, sys system, w workload, st *stream) []string {
	t.Helper()
	var model *cvsModel
	if w.kind == cvsMixed {
		model = newCVSModel(st)
	}
	if err := preload(sys, st, model); err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := range st.users[0] {
		for u := 0; u < users; u++ {
			o := st.users[u][i]
			var (
				ans any
				err error
			)
			switch o.kind {
			case opWrite:
				ans, err = sys.Do(u, writeOp(o.idx, o.val))
			case opRead:
				ans, err = sys.Do(u, readOp(o.idx))
			case opCommit:
				ans, err = sys.Repo(u).Commit(map[string][]byte{fileName(o.idx): model.commit(o)}, "edit", nil)
			case opCheckout:
				ans, err = sys.Repo(u).Checkout(fileName(o.idx))
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%v", ans))
		}
	}
	// A read of everything a key-value stream touched pins the final state too.
	if len(st.preload) > 0 {
		ans, err := sys.Do(0, &trustedcvs.RangeOp{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%v", ans))
	}
	return out
}
