// Command tcvs-bench regenerates the experiment tables (see DESIGN.md
// §2 for the mapping to the paper's figures, theorems and design
// claims, and EXPERIMENTS.md for recorded results). The experiments
// come from internal/bench's registry; -h lists their ids.
//
// Usage:
//
//	tcvs-bench            # run everything
//	tcvs-bench -e E2      # one experiment
//	tcvs-bench -e E13     # a recorded one (E13 onward): also writes BENCH_E13.json
//
// Experiments that record a BENCH_<ID>.json refuse to overwrite an
// existing record unless -force is given: checked-in records are the
// repo's evidence, and clobbering one by accident destroys the number
// a PR was accepted on.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"trustedcvs/internal/bench"
)

func main() {
	ids := strings.Join(bench.All(), ", ")
	var e = flag.String("e", "all", "experiment to run: all, or one of "+ids)
	var out = flag.String("o", "", "output path for a recorded experiment's JSON (default BENCH_<ID>.json)")
	var force = flag.Bool("force", false, "overwrite an existing BENCH_<ID>.json record")
	flag.Parse()

	if *e == "all" {
		for _, id := range bench.All() {
			run, _, _ := bench.ByID(id)
			render(id, run, io.Discard)
		}
		return
	}
	run, recorded, ok := bench.ByID(*e)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, or one of %s)\n", *e, ids)
		os.Exit(2)
	}
	if !recorded {
		render(*e, run, io.Discard)
		return
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", *e)
	}
	// Refuse to clobber an existing record before burning minutes on
	// the measurement.
	if !*force {
		if _, err := os.Stat(path); err == nil {
			fmt.Fprintf(os.Stderr, "%s exists; re-run with -force to overwrite it\n", path)
			os.Exit(1)
		}
	}
	var record bytes.Buffer
	render(*e, run, &record)
	if err := os.WriteFile(path, record.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *e, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s\n", path)
}

// render runs one experiment, its record going to w, and prints the
// table.
func render(id string, run func(io.Writer) (*bench.Table, error), w io.Writer) {
	t, err := run(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
		os.Exit(1)
	}
	t.Render(os.Stdout)
}
