// Command benchmark is the repo's one yardstick: four closed-loop
// workloads driven through trustedcvs.NewLocalCluster over loopback
// TCP, eight end-to-end metrics each, and — with --trace 1 — per-layer
// probes and a span trace taken from outside the program. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// config is one invocation's input.
type config struct {
	w       workload
	div     int // scale divisor: 1 for a real run, larger for the smoke test
	seed    int64
	seconds float64 // timed window to accumulate over the rounds
	trace   bool
	out     string // directory for span files and journal scratch
}

func (c config) sizing() sizing { return c.w.full.scaled(c.div) }

func main() {
	var (
		name    = flag.String("workload", "", "kv-write | kv-read | cvs-mixed | kv-write-epoch-wal | all")
		seed    = flag.Int64("seed", 1, "seed of the pre-generated operation streams")
		seconds = flag.Float64("seconds", 10, "timed window to accumulate; rounds of a fixed operation count repeat until it is reached")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics and writing <out>/<workload>.trace.jsonl")
		out     = flag.String("out", "benchmark/out", "directory for span files and journal scratch")
	)
	flag.Parse()
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, w := range todo {
		cfg := config{w: w, div: 1, seed: *seed, seconds: *seconds, trace: *trace != 0, out: *out}
		res, err := run(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures one workload and returns its result line. Progress and
// the human-readable table go to log.
func run(cfg config, log io.Writer) (result, error) {
	st := generate(cfg.w, cfg.sizing(), cfg.seed)
	var (
		res      result
		problems []string
		err      error
	)
	if cfg.trace {
		res, problems, err = tracedRun(cfg, st, log)
	} else {
		res, problems, err = endToEndRun(cfg, st, log)
	}
	if err != nil {
		return res, err
	}
	if err := epilogue(cfg.w.epoch > 0); err != nil {
		problems = append(problems, "adversarial epilogue: "+err.Error())
	}
	for _, p := range problems {
		fmt.Fprintf(log, "INCORRECT %s: %s\n", cfg.w.name, p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	printTable(log, cfg, res)
	return res, nil
}

// endToEndRun repeats untraced rounds until the timed windows add up
// to cfg.seconds and reports the median round.
func endToEndRun(cfg config, st *stream, log io.Writer) (result, []string, error) {
	var (
		rounds   []roundResult
		problems []string
		timed    time.Duration
	)
	for timed < time.Duration(cfg.seconds*float64(time.Second)) {
		r, err := endToEndRound(cfg, cfg.sizing(), st)
		if err != nil {
			return result{}, nil, err
		}
		fmt.Fprintf(log, "# %s round %d: setup %.2fs, %d ops in %.2fs, p50 %.0fus p99 %.0fus p99.9 %.0fus (n=%d), retries %d, fillers %d\n",
			cfg.w.name, len(rounds)+1, r.setup.Seconds(), r.ops(), r.wall.Seconds(),
			micros(quantile(r.lat, 0.5)), micros(quantile(r.lat, 0.99)), micros(quantile(r.lat, 0.999)), len(r.lat), r.retries, r.fillers)
		rounds = append(rounds, r)
		problems = append(problems, r.problems...)
		timed += r.wall
	}
	res := result{Metrics: endToEndMetrics(rounds)}
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	return res, problems, nil
}

// endToEndRound runs one round against a fresh NewLocalCluster.
func endToEndRound(cfg config, sz sizing, st *stream) (roundResult, error) {
	walRoot := ""
	if cfg.w.wal {
		dir, err := tempDir(cfg.out)
		if err != nil {
			return roundResult{}, err
		}
		defer os.RemoveAll(dir)
		walRoot = dir
	}
	return runRound(roundCfg{
		w: cfg.w, sz: sz, st: st,
		build: func() (system, error) { return newCluster(clusterConfig(cfg.w, walRoot)) },
	})
}

// endToEndMetrics reduces the rounds of one run to the eight gated
// numbers: each is the median over the rounds of the round's own value.
func endToEndMetrics(rounds []roundResult) map[string]metric {
	col := func(f func(r *roundResult) float64) float64 {
		v := make([]float64, len(rounds))
		for i := range rounds {
			v[i] = f(&rounds[i])
		}
		return median(v)
	}
	perOp := func(f func(r *roundResult) float64) float64 {
		return col(func(r *roundResult) float64 { return f(r) / float64(r.ops()) })
	}
	return map[string]metric{
		"setup_s":         {col(func(r *roundResult) float64 { return r.setup.Seconds() }), "s"},
		"ops_per_s":       {col(func(r *roundResult) float64 { return float64(r.ops()) / r.wall.Seconds() }), "1/s"},
		"op_p50_us":       {col(func(r *roundResult) float64 { return micros(quantile(r.lat, 0.5)) }), "us"},
		"op_p99_us":       {col(func(r *roundResult) float64 { return micros(quantile(r.lat, 0.99)) }), "us"},
		"cpu_us_per_op":   {perOp(func(r *roundResult) float64 { return micros(r.cpu) }), "us"},
		"allocs_per_op":   {perOp(func(r *roundResult) float64 { return float64(r.mallocs) }), "count"},
		"alloc_kb_per_op": {perOp(func(r *roundResult) float64 { return float64(r.allocated) / 1024 }), "KB"},
		"live_heap_mb":    {col(func(r *roundResult) float64 { return float64(r.liveHeap) / (1 << 20) }), "MB"},
	}
}

func printTable(log io.Writer, cfg config, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "# %s seed %d: attempted %d, failed %d, correct %v\n", cfg.w.name, cfg.seed, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(log, "%-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
