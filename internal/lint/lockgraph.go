package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module's static lock-acquisition graph for the
// lockorder pass. Nodes are lock *classes* — a mutex identified by the
// struct field (or package-level variable) that declares it, e.g.
// "internal/vdb.DB.mu" or "internal/vdb.DB.hmu" — and an edge A -> B
// means some code path acquires B while holding A.
//
// Every function gets a summary of its *net* lock effect — the classes
// it leaves acquired (netAcq) or released (netRel) on return, plus
// every class it transitively acquires even transiently (acq) —
// computed to a fixpoint over the call graph. A j.lock() method that
// does j.mu.Lock() therefore summarizes as netAcq={Journal.mu}, and a
// caller holding another lock across it gets the edge automatically,
// whatever the wrapper is called.
//
// Same-class edges (Journal.mu -> Journal.mu) are excluded: the order
// between two instances of one class is not statically
// distinguishable. Cross-class cycles are what the pass reports.

// lockClass identifies one mutex by declaration site.
type lockClass string

// lockSummary is one function's interprocedural lock behavior.
type lockSummary struct {
	acq    map[lockClass]bool // transitively acquired, even transiently
	netAcq map[lockClass]bool // held on return
	netRel map[lockClass]bool // released on return without acquiring
}

func (s *lockSummary) equal(o *lockSummary) bool {
	return o != nil && setsEqual(s.acq, o.acq) && setsEqual(s.netAcq, o.netAcq) && setsEqual(s.netRel, o.netRel)
}

func setsEqual(a, b map[lockClass]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// LockEdge is one "acquire to while holding from" site.
type LockEdge struct {
	From, To lockClass
	Pos      token.Pos   // the acquisition site of To
	Fn       *types.Func // function containing the site
	Via      string      // callee chain when the acquisition is inside a callee
}

// LockGraph is the module's static lock-order graph.
type LockGraph struct {
	m     *Module
	sums  map[*types.Func]*lockSummary
	Edges []LockEdge
	held  []heldCall // every other call made while a lock is held (lockscope's view)

	edgeSeen map[string]bool
}

// heldCall is one call, other than a lock operation, that the walker
// reached with at least one lock held.
type heldCall struct {
	pkg  *Package
	call *ast.CallExpr
	fn   *types.Func // the static callee
	lock heldEntry   // the innermost lock held
}

// Mutex acquisition calls including the Try variants (a TryLock still
// orders against held locks when it succeeds), and the releases.
var (
	lockAcqFuncs = map[string]bool{
		"(*sync.Mutex).Lock":       true,
		"(*sync.Mutex).TryLock":    true,
		"(*sync.RWMutex).Lock":     true,
		"(*sync.RWMutex).TryLock":  true,
		"(*sync.RWMutex).RLock":    true,
		"(*sync.RWMutex).TryRLock": true,
	}
	unlockFuncs = map[string]bool{
		"(*sync.Mutex).Unlock":    true,
		"(*sync.RWMutex).Unlock":  true,
		"(*sync.RWMutex).RUnlock": true,
	}
)

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockGraph builds (and caches) the module's lock graph.
func (m *Module) lockGraph() *LockGraph {
	if m.lg != nil {
		return m.lg
	}
	g := &LockGraph{
		m:        m,
		sums:     make(map[*types.Func]*lockSummary),
		edgeSeen: make(map[string]bool),
	}
	cg := m.callGraph()
	for round := 0; round < 24; round++ {
		changed := false
		for _, fn := range cg.order {
			s := g.summarize(cg.Nodes[fn])
			if !s.equal(g.sums[fn]) {
				g.sums[fn] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fn := range cg.order {
		node := cg.Nodes[fn]
		sc := &lockWalker{g: g, node: node}
		sc.scan(node.Decl.Body.List, nil)
		// Function literals are their own roots: they run on their own
		// schedule (goroutines, callbacks) with no lock lexically held
		// at their definition site.
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				sc.scan(lit.Body.List, nil)
			}
			return true
		})
	}
	m.lg = g
	return g
}

// summarize computes one function's direct+transitive lock effects
// (excluding function literals and go statements, which do not run
// synchronously as part of the call).
func (g *LockGraph) summarize(node *CGNode) *lockSummary {
	acqAll := make(map[lockClass]bool)
	relAll := make(map[lockClass]bool)
	trans := make(map[lockClass]bool)
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				_ = v
				return false
			case *ast.CallExpr:
				if cls, kind, ok := g.directOp(node, v); ok {
					if kind == opLock {
						acqAll[cls] = true
						trans[cls] = true
					} else {
						relAll[cls] = true
					}
					return true
				}
				for _, callee := range g.callees(node, v) {
					if sum := g.sums[callee]; sum != nil {
						for cls := range sum.acq {
							trans[cls] = true
						}
						for cls := range sum.netAcq {
							acqAll[cls] = true
						}
						for cls := range sum.netRel {
							relAll[cls] = true
						}
					}
				}
			}
			return true
		})
	}
	walk(node.Decl.Body)
	s := &lockSummary{acq: trans, netAcq: make(map[lockClass]bool), netRel: make(map[lockClass]bool)}
	for cls := range acqAll {
		if !relAll[cls] {
			s.netAcq[cls] = true
		}
	}
	for cls := range relAll {
		if !acqAll[cls] {
			s.netRel[cls] = true
		}
	}
	return s
}

// directOp classifies a call as a direct sync.Mutex/RWMutex
// acquire/release and returns the lock class of its receiver.
func (g *LockGraph) directOp(node *CGNode, call *ast.CallExpr) (lockClass, lockOpKind, bool) {
	fn := calleeFunc(node.Pkg.Info, call)
	if fn == nil {
		return "", opNone, false
	}
	full := fn.FullName()
	var kind lockOpKind
	switch {
	case lockAcqFuncs[full]:
		kind = opLock
	case unlockFuncs[full]:
		kind = opUnlock
	default:
		return "", opNone, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone, false
	}
	return g.classOf(node, sel.X), kind, true
}

// classOf names the lock class of a mutex expression: the declaring
// struct field for x.f-shaped receivers, the package-level variable or
// enclosing function's local otherwise.
func (g *LockGraph) classOf(node *CGNode, mutex ast.Expr) lockClass {
	info := node.Pkg.Info
	switch x := ast.Unparen(mutex).(type) {
	case *ast.SelectorExpr:
		base := info.TypeOf(x.X)
		if base != nil {
			if p, ok := base.(*types.Pointer); ok {
				base = p.Elem()
			}
			if named, ok := base.(*types.Named); ok && named.Obj().Pkg() != nil {
				return lockClass(g.m.pkgRel(named.Obj().Pkg()) + "." + named.Obj().Name() + "." + x.Sel.Name)
			}
		}
		return lockClass(node.Pkg.Rel + "." + types.ExprString(x))
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() { // package-level mutex
				return lockClass(g.m.pkgRel(obj.Pkg()) + "." + x.Name)
			}
		}
		return lockClass(node.Pkg.Rel + "." + node.Fn.Name() + "." + x.Name)
	}
	return lockClass(node.Pkg.Rel + "." + types.ExprString(mutex))
}

// pkgRel renders a package path relative to the module root.
func (m *Module) pkgRel(p *types.Package) string {
	path := p.Path()
	if path == m.Path {
		return "."
	}
	return strings.TrimPrefix(path, m.Path+"/")
}

// callees resolves a call to its module-local callees (fanning out
// over interface dispatch), or nil.
func (g *LockGraph) callees(node *CGNode, call *ast.CallExpr) []*types.Func {
	fn := calleeFunc(node.Pkg.Info, call)
	if fn == nil {
		return nil
	}
	if iface := ifaceRecv(fn); iface != nil {
		return g.m.callGraph().implementers(fn, iface)
	}
	return []*types.Func{fn}
}

// heldEntry is one lock class lexically held during the edge scan.
type heldEntry struct {
	cls lockClass
	pos token.Pos
}

// lockWalker performs the lexical held-set scan that records edges and
// held calls: nested blocks see a copy of the held set (lock state
// changes inside them do not leak out), defer mu.Unlock() keeps the
// section open to the end of the function, go statements run on their
// own schedule.
type lockWalker struct {
	g    *LockGraph
	node *CGNode
}

func (w *lockWalker) scan(stmts []ast.Stmt, held []heldEntry) {
	held = append([]heldEntry(nil), held...)
	for _, stmt := range stmts {
		for {
			ls, ok := stmt.(*ast.LabeledStmt)
			if !ok {
				break
			}
			stmt = ls.Stmt
		}
		switch st := stmt.(type) {
		case *ast.ExprStmt:
			held = w.call(st.X, held, true)
		case *ast.DeferStmt:
			// A deferred release keeps the section open (summaries
			// already balance it); a deferred call that acquires runs
			// with whatever is held at return — record edges only.
			if _, kind, ok := w.g.directOp(w.node, st.Call); ok && kind == opUnlock {
				continue
			}
			w.nested(st, held)
		case *ast.GoStmt:
			// Runs on its own schedule; its body is scanned as a root.
		case *ast.BlockStmt:
			w.scan(st.List, held)
		case *ast.IfStmt:
			w.nestedParts(held, st.Init, wrapExpr(st.Cond))
			w.scan(st.Body.List, held)
			if st.Else != nil {
				w.scan([]ast.Stmt{st.Else}, held)
			}
		case *ast.ForStmt:
			w.nestedParts(held, st.Init, wrapExpr(st.Cond), st.Post)
			w.scan(st.Body.List, held)
		case *ast.RangeStmt:
			w.nestedParts(held, wrapExpr(st.X))
			w.scan(st.Body.List, held)
		case *ast.SwitchStmt:
			w.nestedParts(held, st.Init, wrapExpr(st.Tag))
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.scan(cc.Body, held)
				}
			}
		case *ast.TypeSwitchStmt:
			w.nestedParts(held, st.Init, st.Assign)
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.scan(cc.Body, held)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					w.nestedParts(held, cc.Comm)
					w.scan(cc.Body, held)
				}
			}
		default:
			w.nested(stmt, held)
		}
	}
}

// call processes one statement-level call expression, mutating the
// held set when mutate is true.
func (w *lockWalker) call(e ast.Expr, held []heldEntry, mutate bool) []heldEntry {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		w.nested(e, held)
		return held
	}
	w.nested(call.Fun, held)
	for _, arg := range call.Args {
		w.nested(arg, held)
	}
	if cls, kind, ok := w.g.directOp(w.node, call); ok {
		if kind == opLock {
			w.addEdges(held, cls, call.Pos(), "")
			if mutate {
				held = append(held, heldEntry{cls: cls, pos: call.Pos()})
			}
		} else if mutate {
			held = removeHeld(held, cls)
		}
		return held
	}
	w.record(call, held)
	for _, callee := range w.g.callees(w.node, call) {
		sum := w.g.sums[callee]
		if sum == nil {
			continue
		}
		for _, cls := range sortedClasses(sum.acq) {
			w.addEdges(held, cls, call.Pos(), funcLabel(callee))
		}
		if mutate {
			for _, cls := range sortedClasses(sum.netAcq) {
				held = append(held, heldEntry{cls: cls, pos: call.Pos()})
			}
			for _, cls := range sortedClasses(sum.netRel) {
				held = removeHeld(held, cls)
			}
		}
	}
	return held
}

// nested records edges for acquisitions inside a non-statement-level
// node (conditions, assignments, arguments) without mutating held.
func (w *lockWalker) nested(node ast.Node, held []heldEntry) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			_ = v
			return false
		case *ast.CallExpr:
			if cls, kind, ok := w.g.directOp(w.node, v); ok {
				if kind == opLock {
					w.addEdges(held, cls, v.Pos(), "")
				}
				return true
			}
			w.record(v, held)
			for _, callee := range w.g.callees(w.node, v) {
				if sum := w.g.sums[callee]; sum != nil {
					for _, cls := range sortedClasses(sum.acq) {
						w.addEdges(held, cls, v.Pos(), funcLabel(callee))
					}
				}
			}
		}
		return true
	})
}

// record notes a call made while locks are held.
func (w *lockWalker) record(call *ast.CallExpr, held []heldEntry) {
	if len(held) == 0 {
		return
	}
	if fn := calleeFunc(w.node.Pkg.Info, call); fn != nil {
		w.g.held = append(w.g.held, heldCall{pkg: w.node.Pkg, call: call, fn: fn, lock: held[len(held)-1]})
	}
}

func (w *lockWalker) nestedParts(held []heldEntry, parts ...ast.Stmt) {
	for _, p := range parts {
		if p != nil {
			w.nested(p, held)
		}
	}
}

// addEdges records held -> to edges, skipping same-class edges and
// duplicates per (from, to, site).
func (w *lockWalker) addEdges(held []heldEntry, to lockClass, pos token.Pos, via string) {
	for _, h := range held {
		if h.cls == to {
			continue
		}
		key := fmt.Sprintf("%s|%s|%d", h.cls, to, pos)
		if w.g.edgeSeen[key] {
			continue
		}
		w.g.edgeSeen[key] = true
		w.g.Edges = append(w.g.Edges, LockEdge{From: h.cls, To: to, Pos: pos, Fn: w.node.Fn, Via: via})
	}
}

func wrapExpr(e ast.Expr) ast.Stmt {
	if e == nil {
		return nil
	}
	return &ast.ExprStmt{X: e}
}

func removeHeld(held []heldEntry, cls lockClass) []heldEntry {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].cls == cls {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

func sortedClasses(set map[lockClass]bool) []lockClass {
	out := make([]lockClass, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LockGraphDOT renders the lock-order graph in Graphviz DOT form for
// triage (`tcvs-lint -graph lock`).
func LockGraphDOT(m *Module) string {
	g := m.lockGraph()
	var b strings.Builder
	b.WriteString("digraph lockorder {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	seen := make(map[string]bool)
	for _, e := range g.Edges {
		p := m.Fset.Position(e.Pos)
		label := fmt.Sprintf("%s:%d", m.relFile(p.Filename), p.Line)
		if e.Via != "" {
			label += " via " + e.Via
		}
		line := fmt.Sprintf("  %q -> %q [label=%q];\n", e.From, e.To, label)
		if !seen[line] {
			seen[line] = true
			b.WriteString(line)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
