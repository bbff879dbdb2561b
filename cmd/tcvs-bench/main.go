// Command tcvs-bench regenerates the experiment tables (see DESIGN.md
// §2 for the mapping to the paper's figures, theorems and design
// claims, and EXPERIMENTS.md for recorded results). The experiments
// come from internal/bench's registry; -h lists their ids.
//
// Usage:
//
//	tcvs-bench            # run everything
//	tcvs-bench -e E2      # one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"trustedcvs/internal/bench"
)

func main() {
	ids := strings.Join(bench.All(), ", ")
	e := flag.String("e", "all", "experiment to run: all, or one of "+ids)
	flag.Parse()

	run := bench.All()
	if *e != "all" {
		if _, ok := bench.ByID(*e); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, or one of %s)\n", *e, ids)
			os.Exit(2)
		}
		run = []string{*e}
	}
	for _, id := range run {
		exp, _ := bench.ByID(id)
		t, err := exp()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		t.Render(os.Stdout)
	}
}
