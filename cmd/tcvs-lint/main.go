// Command tcvs-lint is the repo's invariant analyzer: a stdlib-only
// static checker for the conventions the protocol security argument
// depends on but the compiler cannot see. See internal/lint for the
// pass catalogue and DESIGN.md "Static analysis & enforced invariants"
// for the rationale behind each invariant.
//
// Usage:
//
//	tcvs-lint [-json] [-passes p1,p2] [-time] [-graph call|lock] [pattern ...]
//
// Patterns are package directories relative to the working directory;
// "./..." (the default) analyzes the whole module. Exit status: 0 when
// clean, 1 when findings were reported, 2 on load or usage errors.
//
// -graph dumps the interprocedural engine's view (the type-resolved
// call graph or the lock-order graph) as Graphviz DOT on stdout and
// exits — the triage companion to a verifyflow/lockorder finding.
// -time prints per-pass wall-clock timings to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"trustedcvs/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	passNames := flag.String("passes", "", "comma-separated subset of passes to run (default: all)")
	graph := flag.String("graph", "", "dump a graph as Graphviz DOT and exit: \"call\" (call graph) or \"lock\" (lock-order graph)")
	timings := flag.Bool("time", false, "print per-pass wall-clock timings to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tcvs-lint [flags] [pattern ...]\n\npasses:\n")
		for _, p := range lint.Passes() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", p.Name, p.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	passes := lint.Passes()
	if *passNames != "" {
		passes = passes[:0:0]
		for _, name := range strings.Split(*passNames, ",") {
			p := lint.PassByName(strings.TrimSpace(name))
			if p == nil {
				fmt.Fprintf(os.Stderr, "tcvs-lint: unknown pass %q\n", name)
				return 2
			}
			passes = append(passes, p)
		}
	}

	m, err := lint.LoadModule(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcvs-lint: %v\n", err)
		return 2
	}

	switch *graph {
	case "":
	case "call":
		fmt.Print(lint.CallGraphDOT(m))
		return 0
	case "lock":
		fmt.Print(lint.LockGraphDOT(m))
		return 0
	default:
		fmt.Fprintf(os.Stderr, "tcvs-lint: -graph wants \"call\" or \"lock\", got %q\n", *graph)
		return 2
	}

	diags, passTimes := lint.RunTimed(m, passes)
	if *timings {
		for _, t := range passTimes {
			fmt.Fprintf(os.Stderr, "tcvs-lint: %-16s %8.1fms\n", t.Name, float64(t.Elapsed.Microseconds())/1000)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diag{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "tcvs-lint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "tcvs-lint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
