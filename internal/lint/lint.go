// Package lint implements tcvs-lint, the repo's stdlib-only invariant
// analyzer. The protocols' security argument rests on conventions the
// compiler cannot enforce — the pipelined servers' serial sections stay
// narrow and their locks acyclic, error-carrying verification results
// are never dropped, a remote request cannot reach a panic, retries do
// not sleep, queues are bounded, and a durable artifact is published
// only after the data it makes reachable is synced. This package
// machine-checks those conventions on every commit (scripts/check.sh
// runs `tcvs-lint ./...` as a hard gate). Conventions an import list
// states — hashing only through internal/digest, no encoding/gob, no
// math/rand beside signatures and protocol state, no clock in the
// verification paths — are `go list` rules in scripts/check.sh.
//
// The interprocedural passes share one call graph (callgraph.go) and
// one held-lock walker over it (lockgraph.go). The analyzer is built on
// nothing but the standard library (go/parser, go/ast, go/types,
// go/importer) and the go command, which locates the standard
// library's export data: it must run in the same sandboxed
// environments as the tests, with no module downloads.
//
// # Suppressions
//
// A finding is suppressed by a comment on the same line or the line
// directly above it:
//
//	//lint:ignore <pass>[,<pass>...] <reason>
//
// The reason is mandatory; a directive without one is ignored. The
// pass name "all" suppresses every pass.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"time"
)

// A Diag is one finding: a violated invariant at a source position.
type Diag struct {
	Pass string `json:"pass"`
	File string `json:"file"` // slash-separated, relative to the module root
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// String renders the finding in the conventional file:line:col form.
func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Pass, d.Msg)
}

// A Pass is one invariant checker run over a loaded module.
type Pass struct {
	Name string
	Doc  string
	Run  func(m *Module) []Diag
}

// Pass names (referenced by run functions; keeping them as constants
// avoids initialization cycles through the Pass variables).
const (
	nameLockScope      = "lockscope"
	nameErrDrop        = "errdrop"
	namePanicFree      = "panicfree"
	nameSleepRetry     = "sleepretry"
	nameLockOrder      = "lockorder"
	nameSyncDiscipline = "syncdiscipline"
	nameBoundedQueue   = "boundedqueue"
	nameDeadIgnore     = "deadignore"
)

// Passes returns all registered passes in their canonical order.
// deadignore is last by construction: it audits the suppression
// directives the other passes consumed, so they must run first (Run
// reorders it to the end regardless of the list it is given).
func Passes() []*Pass {
	return []*Pass{
		passLockScope,
		passErrDrop,
		passPanicFree,
		passSleepRetry,
		passLockOrder,
		passSyncDiscipline,
		passBoundedQueue,
		passDeadIgnore,
	}
}

// knownPassNames mirrors Passes() as plain constants so deadignore can
// consult it without an initialization cycle through the Pass vars.
var knownPassNames = map[string]bool{
	nameLockScope:      true,
	nameErrDrop:        true,
	namePanicFree:      true,
	nameSleepRetry:     true,
	nameLockOrder:      true,
	nameSyncDiscipline: true,
	nameBoundedQueue:   true,
	nameDeadIgnore:     true,
}

// PassByName resolves a comma-separable pass name; nil if unknown.
func PassByName(name string) *Pass {
	for _, p := range Passes() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// PassTiming is one pass's wall-clock cost for a RunTimed invocation.
type PassTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunTimed executes the passes over the module, filters suppressed
// findings, and returns the rest sorted by position, with per-pass
// wall-clock timings (scripts/check.sh prints them so a pass that
// regresses into pathological cost is visible in CI output, not just
// felt).
func RunTimed(m *Module, passes []*Pass) ([]Diag, []PassTiming) {
	// deadignore always runs last: it reports directives that
	// suppressed nothing, which is only known after the other
	// requested passes have run and consumed their suppressions.
	ordered := make([]*Pass, 0, len(passes))
	var dead *Pass
	for _, p := range passes {
		if p.Name == nameDeadIgnore {
			dead = p
			continue
		}
		ordered = append(ordered, p)
	}
	if dead != nil {
		ordered = append(ordered, dead)
	}
	if m.ranPasses == nil {
		m.ranPasses = make(map[string]bool)
	}
	for _, p := range ordered {
		m.ranPasses[p.Name] = true
	}

	var out []Diag
	var timings []PassTiming
	for _, p := range ordered {
		start := time.Now()
		for _, d := range p.Run(m) {
			if !m.suppressed(p.Name, d) {
				out = append(out, d)
			}
		}
		timings = append(timings, PassTiming{Name: p.Name, Elapsed: time.Since(start)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
	return out, timings
}

// calleeFunc resolves the function or method a call statically invokes.
// Calls through function-typed variables, interface values with no
// static callee, or type conversions return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// underAny reports whether a module-relative package path equals one of
// the given roots or sits beneath one of them.
func underAny(rel string, roots ...string) bool {
	for _, r := range roots {
		if rel == r || (len(rel) > len(r) && rel[:len(r)] == r && rel[len(r)] == '/') {
			return true
		}
	}
	return false
}
