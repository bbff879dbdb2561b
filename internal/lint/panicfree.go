package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// passPanicFree proves (statically, over the static-call edges of the
// module's call graph, callgraph.go) that no panic is reachable from
// the exported server and handler entry points — the surface a remote
// peer can drive. A panic there is a remote denial-of-service: one
// hostile request takes down the server for every honest user.
//
// Entry points are the exported functions and methods of
// internal/server, internal/driver, and internal/transport. Edges are
// static calls only: calls through interfaces and function values end
// a path (the wire layer already guarantees decoded requests are
// structurally validated before any dynamic dispatch). Vetted
// constructors — functions named New* or Must* — may panic on
// programmer error; their panics are exempt, but the walk continues
// through them.
var passPanicFree = &Pass{
	Name: namePanicFree,
	Doc:  "panics statically reachable from exported server/handler entry points",
	Run:  runPanicFree,
}

var panicEntryScope = []string{"internal/server", "internal/driver", "internal/transport"}

func runPanicFree(m *Module) []Diag {
	g := m.callGraph()
	targets := m.targets()
	var entries []*types.Func
	for _, fn := range g.order {
		if pkg := g.Nodes[fn].Pkg; targets[pkg] && underAny(pkg.Rel, panicEntryScope...) && fn.Exported() {
			entries = append(entries, fn)
		}
	}

	// BFS over static edges from all entries, remembering one shortest
	// path per function for the report.
	parent := make(map[*types.Func]*types.Func)
	visited := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, e := range entries {
		if !visited[e] {
			visited[e] = true
			queue = append(queue, e)
		}
	}
	reported := make(map[token.Pos]bool)
	var out []Diag
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := g.Nodes[fn]
		if !vettedPanicker(fn.Name()) {
			for _, p := range panicSites(node) {
				if reported[p] {
					continue
				}
				reported[p] = true
				out = append(out, m.diagf(namePanicFree, p,
					"panic reachable from exported entry point via %s: a hostile request must surface as an error, not a crash",
					callPath(parent, fn)))
			}
		}
		for _, e := range node.Edges {
			if e.Call == nil || e.Dynamic {
				continue // only static calls extend a path
			}
			callee := e.Callees[0]
			if n := g.Nodes[callee]; n == nil || !targets[n.Pkg] || visited[callee] {
				continue
			}
			visited[callee] = true
			parent[callee] = fn
			queue = append(queue, callee)
		}
	}
	return out
}

// panicSites lists the builtin panic calls in a function body.
func panicSites(node *CGNode) []token.Pos {
	var sites []token.Pos
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := node.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					sites = append(sites, call.Pos())
				}
			}
		}
		return true
	})
	return sites
}

// vettedPanicker reports whether a function is a vetted constructor
// whose argument-validation panics are programmer errors by contract.
func vettedPanicker(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Must")
}

// callPath renders the entry→…→fn chain recorded by the BFS.
func callPath(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var chain []string
	for f := fn; f != nil; f = parent[f] {
		chain = append(chain, funcLabel(f))
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " -> ")
}

// funcLabel is a compact pkg.Func / pkg.(Recv).Method label.
func funcLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s(%s).%s", pkg, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + fn.Name()
}
