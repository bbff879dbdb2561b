package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module's type-resolved static call graph — the
// one substrate under the interprocedural passes lockscope, lockorder
// (both through the lock graph), panicfree and syncdiscipline. Nodes
// are the declared functions and methods of the module; edges are
//
//   - direct static calls (pkg.F(), recv.Method()),
//   - method values and function values referenced without being
//     called (f := enc.Encode; later f(v)) — recorded as "ref" edges,
//     since the reference may be invoked anywhere, and
//   - interface dispatch, resolved by method-set matching: a call
//     through an interface method fans out to every module-local
//     concrete type whose method set satisfies the interface.
//
// Calls through bare function-typed variables and parameters are the
// one dynamic feature with no static callee at all; the graph has no
// edge for them.

// CGEdge is one call site (or function-value reference) with its
// statically resolved callee set.
type CGEdge struct {
	Pos     token.Pos
	Call    *ast.CallExpr // nil for a bare function/method-value reference
	Callees []*types.Func // 1 for static calls, N for interface dispatch
	Dynamic bool          // resolved by interface method-set matching
}

// CGNode is one declared function or method of the module.
type CGNode struct {
	Fn    *types.Func
	Pkg   *Package
	Decl  *ast.FuncDecl
	Edges []CGEdge
}

// CallGraph is the module's static call graph.
type CallGraph struct {
	m     *Module
	Nodes map[*types.Func]*CGNode

	order []*types.Func // deterministic iteration order (by FullName, then position)

	named     []*types.Named                // module-local concrete named types
	implCache map[*types.Func][]*types.Func // interface method -> implementations
}

// callGraph builds (and caches) the module's call graph.
func (m *Module) callGraph() *CallGraph {
	if m.cg != nil {
		return m.cg
	}
	g := &CallGraph{
		m:         m,
		Nodes:     make(map[*types.Func]*CGNode),
		implCache: make(map[*types.Func][]*types.Func),
	}
	pkgs := m.modulePackages()
	g.collectNamed(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CGNode{Fn: obj, Pkg: pkg, Decl: fd}
				g.collectEdges(node, pkg, fd.Body)
				g.Nodes[obj] = node
			}
		}
	}
	for fn := range g.Nodes {
		g.order = append(g.order, fn)
	}
	// FullName ties between a package's init functions; their source
	// positions break it.
	sort.Slice(g.order, func(i, j int) bool {
		a, b := g.order[i], g.order[j]
		if an, bn := a.FullName(), b.FullName(); an != bn {
			return an < bn
		}
		pa, pb := m.Fset.Position(a.Pos()), m.Fset.Position(b.Pos())
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Offset < pb.Offset
	})
	m.cg = g
	return g
}

// modulePackages returns every loaded module-internal package in
// deterministic order. load() only caches module packages, so the map
// is exactly the module's transitive closure of the load patterns.
func (m *Module) modulePackages() []*Package {
	var out []*Package
	for _, p := range m.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// collectNamed indexes the module's concrete named types for
// interface method-set matching.
func (g *CallGraph) collectNamed(pkgs []*Package) {
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.named = append(g.named, named)
		}
	}
	sort.Slice(g.named, func(i, j int) bool {
		return g.named[i].Obj().Pkg().Path()+"."+g.named[i].Obj().Name() <
			g.named[j].Obj().Pkg().Path()+"."+g.named[j].Obj().Name()
	})
}

// collectEdges walks one function body recording call and reference
// edges.
func (g *CallGraph) collectEdges(node *CGNode, pkg *Package, body *ast.BlockStmt) {
	// Idents that are the operator of a call — excluded from the
	// function-value reference sweep below.
	calleeIdent := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			calleeIdent[fun] = true
		case *ast.SelectorExpr:
			calleeIdent[fun.Sel] = true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil {
			return true
		}
		if iface := ifaceRecv(fn); iface != nil {
			impls := g.implementers(fn, iface)
			if len(impls) > 0 {
				node.Edges = append(node.Edges, CGEdge{Pos: call.Pos(), Call: call, Callees: impls, Dynamic: true})
			}
			return true
		}
		node.Edges = append(node.Edges, CGEdge{Pos: call.Pos(), Call: call, Callees: []*types.Func{fn}})
		return true
	})
	// Function and method values referenced without being called: the
	// reference can be invoked from anywhere, so it is an edge.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || calleeIdent[id] {
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		node.Edges = append(node.Edges, CGEdge{Pos: id.Pos(), Callees: []*types.Func{fn}})
		return true
	})
}

// ifaceRecv returns the receiver interface of an interface method, or
// nil for concrete functions and methods.
func ifaceRecv(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// implementers resolves an interface method to the concrete
// module-local methods that satisfy it (method-set matching over both
// T and *T).
//
// Fan-out is restricted to interfaces the module itself declares:
// those are intentional dispatch boundaries (server.Server,
// transport.Caller, broadcast.Channel) with a handful of deliberate
// implementations. Structural stdlib interfaces — io.Closer,
// fmt.Stringer, error — match half the module by accident and would
// drown the analyses in phantom edges (every Close() method reachable
// from every io.Closer call site). Calls through stdlib interfaces
// are left with no module callee.
func (g *CallGraph) implementers(method *types.Func, iface *types.Interface) []*types.Func {
	if pkg := method.Pkg(); pkg == nil || !g.m.inModule(pkg.Path()) {
		return nil
	}
	if impls, ok := g.implCache[method]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range g.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, method.Pkg(), method.Name())
		if impl, ok := obj.(*types.Func); ok {
			impls = append(impls, impl)
		}
	}
	g.implCache[method] = impls
	return impls
}

// inModule reports whether an import path lies inside this module.
func (m *Module) inModule(path string) bool {
	return path == m.Path || strings.HasPrefix(path, m.Path+"/")
}

// CallGraphDOT renders the module call graph in Graphviz DOT form for
// triage (`tcvs-lint -graph call`). Nodes outside the module (stdlib
// callees) are elided; dynamic (interface-dispatched) edges are
// dashed.
func CallGraphDOT(m *Module) string {
	g := m.callGraph()
	var b strings.Builder
	b.WriteString("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n")
	for _, fn := range g.order {
		node := g.Nodes[fn]
		seen := make(map[string]bool)
		for _, e := range node.Edges {
			for _, callee := range e.Callees {
				if g.Nodes[callee] == nil {
					continue // outside the module
				}
				attr := ""
				if e.Dynamic {
					attr = " [style=dashed]"
				}
				line := fmt.Sprintf("  %q -> %q%s;\n", funcLabel(fn), funcLabel(callee), attr)
				if !seen[line] {
					seen[line] = true
					b.WriteString(line)
				}
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
