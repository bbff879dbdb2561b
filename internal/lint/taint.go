package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements the forward interprocedural taint engine under
// the verifyflow pass. The analysis is deliberately simple enough to
// be auditable — the lint that guards the trust boundary must itself
// be reviewable:
//
//   - Object-level and flow-insensitive within a function: taint
//     attaches to the root object of an expression (resp.Answer
//     taints/clears resp), and a sanitizer applied to an object wins
//     over any taint of the same object ("some verification on the
//     path" — matching the property the paper needs: bytes must pass
//     through VO/signature verification before influencing trusted
//     state, wherever on the path that check runs).
//   - Interprocedural via per-function summaries (which params flow
//     to which results, which params a function sanitizes, which
//     params reach sinks inside, which results a function taints from
//     a source of its own), computed to a global fixpoint over the
//     type-resolved call graph, joining over interface dispatch.
//   - Calls with no static callee and no summary conservatively merge
//     input taint into results and pointer-shaped arguments (so
//     decode-into helpers propagate), but never clear anything.
//   - Function literals are analyzed as part of their enclosing
//     function (they share its objects); go statements and channel
//     sends drop taint except for the spec's designated
//     channel-receive sources (hub messages).
//
// Gates (audit.WaitAdmissible) are function-scoped: a function that
// blocks on the admission gate is considered to have discharged its
// optimistic-delivery obligation — the bound the epoch-audit design
// proves — so both its sinks and its summary results are treated as
// sanitized.

// sourceKind says where a source call puts its untrusted bytes.
type sourceKind int

const (
	srcResults      sourceKind = iota // call results are untrusted
	srcArg0                           // call decodes into its first argument
	srcChanRecv                       // call returns a channel of untrusted values
	srcSecondResult                   // the second result is untrusted by the callee's contract; the call is otherwise summarized as usual
)

// flowSpec is one taint policy: the source/sink/sanitizer tables a
// flow pass runs the engine with. All maps are keyed by
// (*types.Func).FullName.
type flowSpec struct {
	pass       string
	sources    map[string]sourceSpec
	entries    map[string]string // functions (or interface methods) whose params are untrusted
	sinks      map[string]string
	sanitizers map[string]bool
	gates      map[string]bool
	deliveries map[string]string // functions whose tainted non-error results are findings
	reportIn   func(rel string) bool
}

type sourceSpec struct {
	kind sourceKind
	desc string
}

// taintOrigin names one concrete source occurrence.
type taintOrigin struct {
	pos  token.Pos
	desc string
}

// taintVal is the abstract value of one expression: the source that
// tainted it (if any), the function parameters that flow into it, and
// — for channel values — the source whose messages the channel
// carries.
type taintVal struct {
	src    *taintOrigin
	params uint64
	chans  *taintOrigin
}

func (t taintVal) merge(o taintVal) taintVal {
	if t.src == nil {
		t.src = o.src
	}
	if t.chans == nil {
		t.chans = o.chans
	}
	t.params |= o.params
	return t
}

func (t taintVal) live() bool { return t.src != nil || t.params != 0 }

// paramSink records that a tainted argument in the given parameter
// position reaches a sink somewhere inside the function (possibly
// through further calls).
type paramSink struct {
	param int
	sink  string
	via   string
}

// taintSummary is one function's interprocedural behavior.
type taintSummary struct {
	nresults     int
	resultSrc    []*taintOrigin // per result: a source inside taints it
	resultParams []uint64       // per result: contributing parameter bits
	paramSinks   []paramSink
	sanitizes    uint64 // parameter bits passed through a sanitizer
}

func (s *taintSummary) equal(o *taintSummary) bool {
	if o == nil || s.nresults != o.nresults || s.sanitizes != o.sanitizes ||
		len(s.paramSinks) != len(o.paramSinks) {
		return false
	}
	for i := range s.resultSrc {
		if (s.resultSrc[i] == nil) != (o.resultSrc[i] == nil) || s.resultParams[i] != o.resultParams[i] {
			return false
		}
	}
	for i := range s.paramSinks {
		if s.paramSinks[i] != o.paramSinks[i] {
			return false
		}
	}
	return true
}

// taintEngine runs one flowSpec over the module.
type taintEngine struct {
	m    *Module
	g    *CallGraph
	spec *flowSpec
	sums map[*types.Func]*taintSummary

	diags    []Diag
	reported map[string]bool

	ifaceEntries map[string]*types.Func // lazily built in ifaceEntry
}

func runTaint(m *Module, spec *flowSpec) []Diag {
	e := &taintEngine{
		m:        m,
		g:        m.callGraph(),
		spec:     spec,
		sums:     make(map[*types.Func]*taintSummary),
		reported: make(map[string]bool),
	}
	// Global fixpoint over summaries. Summaries grow monotonically in
	// practice; the round cap is a safety net against pathological
	// oscillation, not a correctness lever.
	for round := 0; round < 24; round++ {
		changed := false
		for _, fn := range e.g.order {
			s := e.analyze(fn, false)
			if s != nil && !s.equal(e.sums[fn]) {
				e.sums[fn] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Reporting pass with stable summaries.
	for _, fn := range e.g.order {
		e.analyze(fn, true)
	}
	return e.diags
}

// fnTaint is the per-function analysis state.
type fnTaint struct {
	e      *taintEngine
	node   *CGNode
	report bool

	params    []*types.Var
	paramIdx  map[*types.Var]int
	tainted   map[types.Object]taintVal
	sanitized map[types.Object]bool
	calls     map[*ast.CallExpr][]taintVal
	gated     bool

	sum     *taintSummary
	changed bool
}

// analyze runs the intraprocedural pass for one function and returns
// its (possibly improved) summary.
func (e *taintEngine) analyze(fn *types.Func, report bool) *taintSummary {
	node := e.g.node(fn)
	if node == nil {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	a := &fnTaint{
		e:         e,
		node:      node,
		report:    report,
		paramIdx:  make(map[*types.Var]int),
		tainted:   make(map[types.Object]taintVal),
		sanitized: make(map[types.Object]bool),
		sum: &taintSummary{
			nresults:     sig.Results().Len(),
			resultSrc:    make([]*taintOrigin, sig.Results().Len()),
			resultParams: make([]uint64, sig.Results().Len()),
		},
	}
	if recv := sig.Recv(); recv != nil {
		a.params = append(a.params, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		a.params = append(a.params, sig.Params().At(i))
	}
	for i, p := range a.params {
		if i < 64 {
			a.paramIdx[p] = i
			a.tainted[p] = taintVal{params: 1 << i}
		}
	}
	if desc, ok := e.entryDesc(fn); ok {
		for _, p := range a.params {
			t := a.tainted[p]
			t.src = &taintOrigin{pos: p.Pos(), desc: desc}
			a.tainted[p] = t
		}
	}
	// Intra-function fixpoint: flow-insensitive, so iterate the body
	// until the taint state stops changing.
	for iter := 0; iter < 10; iter++ {
		a.changed = false
		a.calls = make(map[*ast.CallExpr][]taintVal)
		a.walkBody()
		if !a.changed {
			break
		}
	}
	return a.sum
}

// entryDesc reports whether fn's parameters are untrusted at entry:
// its own FullName is listed, or it implements a listed interface
// method.
func (e *taintEngine) entryDesc(fn *types.Func) (string, bool) {
	if d, ok := e.spec.entries[fn.FullName()]; ok {
		return d, true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	for name, d := range e.spec.entries {
		im := e.ifaceEntry(name)
		if im == nil || im.Name() != fn.Name() {
			continue
		}
		iface := ifaceRecv(im)
		if iface == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, iface) {
			return d, true
		}
		if p, ok := rt.(*types.Pointer); ok && types.Implements(p, iface) {
			return d, true
		}
	}
	return "", false
}

// ifaceEntry resolves an entries key to an interface method declared
// somewhere in the loaded module, nil if it names a concrete function.
func (e *taintEngine) ifaceEntry(full string) *types.Func {
	if e.ifaceEntries == nil {
		e.ifaceEntries = make(map[string]*types.Func)
		for _, pkg := range e.m.modulePackages() {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				iface, ok := tn.Type().Underlying().(*types.Interface)
				if !ok {
					continue
				}
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					mobj := iface.ExplicitMethod(i)
					e.ifaceEntries[mobj.FullName()] = mobj
				}
			}
		}
	}
	return e.ifaceEntries[full]
}

// walkBody processes every statement of the function (including
// function-literal bodies, which share its objects).
func (a *fnTaint) walkBody() {
	ast.Inspect(a.node.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			a.assign(st.Lhs, st.Rhs)
		case *ast.ValueSpec:
			if len(st.Values) > 0 {
				lhs := make([]ast.Expr, len(st.Names))
				for i, id := range st.Names {
					lhs[i] = id
				}
				a.assign(lhs, st.Values)
			}
		case *ast.RangeStmt:
			t := a.val(st.X)
			var elem taintVal
			if t.chans != nil {
				elem = taintVal{src: t.chans}
			} else {
				elem = taintVal{src: t.src, params: t.params}
			}
			if st.Key != nil {
				a.taintExpr(st.Key, elem)
			}
			if st.Value != nil {
				a.taintExpr(st.Value, elem)
			}
		case *ast.TypeSwitchStmt:
			a.typeSwitch(st)
		case *ast.ReturnStmt:
			a.returnStmt(st)
		case *ast.CallExpr:
			a.callTaints(st)
		case *ast.GoStmt:
			// The goroutine body is still walked (shared objects); the
			// spawned call itself is processed like any call.
		}
		return true
	})
}

// typeSwitch propagates taint into the per-case implicit objects of a
// `switch m := x.(type)` statement. Each case clause binds its own
// implicit *types.Var (info.Implicits[clause]), distinct from any
// object the Assign identifier resolves to — without this, taint on x
// vanishes at the dispatch every message loop is built around.
func (a *fnTaint) typeSwitch(st *ast.TypeSwitchStmt) {
	var x ast.Expr
	switch as := st.Assign.(type) {
	case *ast.AssignStmt:
		if len(as.Rhs) == 1 {
			if ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok {
				x = ta.X
			}
		}
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(as.X).(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	}
	if x == nil {
		return
	}
	t := a.val(x)
	if !t.live() {
		return
	}
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		obj := a.node.Pkg.Info.Implicits[cc]
		if obj == nil {
			continue
		}
		old := a.tainted[obj]
		if merged := old.merge(t); merged != old {
			a.tainted[obj] = merged
			a.changed = true
		}
	}
}

// assign merges RHS taint into the LHS root objects (tuple-aware).
func (a *fnTaint) assign(lhs, rhs []ast.Expr) {
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			a.taintExpr(lhs[i], a.val(rhs[i]))
		}
	case len(rhs) == 1:
		// x, y := f()  /  v, ok := m[k]  /  v, ok := x.(T)
		var vals []taintVal
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			vals = a.callTaints(call)
		} else {
			t := a.val(rhs[0])
			vals = []taintVal{t, t}
		}
		for i := range lhs {
			if i < len(vals) {
				a.taintExpr(lhs[i], vals[i])
			}
		}
	}
}

// taintExpr merges t into the root object of an assignable expression.
func (a *fnTaint) taintExpr(lhs ast.Expr, t taintVal) {
	if !t.live() && t.chans == nil {
		return
	}
	obj := a.rootObj(lhs)
	if obj == nil {
		return
	}
	old := a.tainted[obj]
	merged := old.merge(t)
	if merged != old {
		a.tainted[obj] = merged
		a.changed = true
	}
}

// rootObj resolves an expression to the object taint attaches to:
// strip selectors, indexes, stars and parens down to the base
// identifier.
func (a *fnTaint) rootObj(e ast.Expr) types.Object {
	info := a.node.Pkg.Info
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if _, ok := obj.(*types.Var); ok {
				return obj
			}
			return nil
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CompositeLit:
			return nil
		default:
			return nil
		}
	}
}

// val computes the abstract value of an expression (pure read — call
// side effects are applied once per iteration via the memoized
// callTaints).
func (a *fnTaint) val(e ast.Expr) taintVal {
	switch x := e.(type) {
	case *ast.Ident:
		obj := a.rootObj(x)
		if obj == nil || a.sanitized[obj] {
			return taintVal{}
		}
		return a.tainted[obj]
	case *ast.SelectorExpr:
		obj := a.rootObj(x)
		if obj == nil || a.sanitized[obj] {
			return taintVal{}
		}
		return a.tainted[obj]
	case *ast.ParenExpr:
		return a.val(x.X)
	case *ast.StarExpr:
		return a.val(x.X)
	case *ast.TypeAssertExpr:
		return a.val(x.X)
	case *ast.IndexExpr:
		return a.val(x.X)
	case *ast.SliceExpr:
		return a.val(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW { // channel receive
			t := a.val(x.X)
			if t.chans != nil {
				return taintVal{src: t.chans}
			}
			return t
		}
		return a.val(x.X)
	case *ast.BinaryExpr:
		return a.val(x.X).merge(a.val(x.Y))
	case *ast.CompositeLit:
		var t taintVal
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t = t.merge(a.val(kv.Value))
			} else {
				t = t.merge(a.val(el))
			}
		}
		return t
	case *ast.CallExpr:
		vals := a.callTaints(x)
		var t taintVal
		for _, v := range vals {
			t = t.merge(v)
		}
		return t
	}
	return taintVal{}
}

// argExprs returns the call's inputs in parameter order: receiver
// first for methods, then the arguments.
func argExprs(call *ast.CallExpr, callee *types.Func) []ast.Expr {
	var out []ast.Expr
	if callee != nil {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				out = append(out, sel.X)
			}
		}
	}
	return append(out, call.Args...)
}

// callTaints applies a call's side effects (sources, sanitizers, sink
// checks, summary application) once per iteration and returns the
// per-result taint.
func (a *fnTaint) callTaints(call *ast.CallExpr) []taintVal {
	if vals, ok := a.calls[call]; ok {
		return vals
	}
	a.calls[call] = nil // cycle guard for pathological nesting
	vals := a.callTaintsUncached(call)
	// A result that is untrusted by the callee's contract stays so
	// whatever the implementations' summaries say (a gated one would
	// otherwise hand it on as clean).
	if fn := calleeFunc(a.node.Pkg.Info, call); fn != nil {
		if src, ok := a.e.spec.sources[fn.FullName()]; ok && src.kind == srcSecondResult && len(vals) > 1 {
			vals[1] = vals[1].merge(taintVal{src: &taintOrigin{pos: call.Pos(), desc: src.desc}})
		}
	}
	a.calls[call] = vals
	return vals
}

func (a *fnTaint) callTaintsUncached(call *ast.CallExpr) []taintVal {
	e := a.e
	info := a.node.Pkg.Info
	fn := calleeFunc(info, call)
	nres := callResults(info, call)

	if fn != nil {
		full := fn.FullName()
		if src, ok := e.spec.sources[full]; ok {
			switch src.kind {
			case srcResults:
				origin := &taintOrigin{pos: call.Pos(), desc: src.desc}
				vals := make([]taintVal, nres)
				for i := range vals {
					vals[i] = taintVal{src: origin}
				}
				return vals
			case srcArg0:
				if len(call.Args) > 0 {
					a.taintExpr(call.Args[0], taintVal{src: &taintOrigin{pos: call.Pos(), desc: src.desc}})
				}
				return make([]taintVal, nres)
			case srcChanRecv:
				vals := make([]taintVal, nres)
				if nres > 0 {
					vals[0] = taintVal{chans: &taintOrigin{pos: call.Pos(), desc: src.desc}}
				}
				return vals
			}
		}
		if e.spec.sanitizers[full] {
			for _, arg := range argExprs(call, fn) {
				if obj := a.rootObj(arg); obj != nil {
					if !a.sanitized[obj] {
						a.sanitized[obj] = true
						a.changed = true
					}
				}
			}
			return make([]taintVal, nres)
		}
		if e.spec.gates[full] {
			if !a.gated {
				a.gated = true
				a.changed = true
			}
			return make([]taintVal, nres)
		}
		if desc, ok := e.spec.sinks[full]; ok {
			for _, arg := range call.Args {
				t := a.val(arg)
				if !t.live() || a.gated {
					continue
				}
				if t.src != nil {
					a.finding(call.Pos(), t.src, desc, "")
				}
				a.recordParamSinks(t.params, desc, "")
			}
			return make([]taintVal, nres)
		}
		// Interprocedural: join callee summaries (fanning out over
		// interface dispatch).
		callees := []*types.Func{fn}
		if iface := ifaceRecv(fn); iface != nil {
			callees = e.g.implementers(fn, iface)
		}
		var summarized bool
		vals := make([]taintVal, nres)
		args := argExprs(call, fn)
		argVals := make([]taintVal, len(args))
		for i, arg := range args {
			argVals[i] = a.val(arg)
		}
		for _, callee := range callees {
			sum := e.sums[callee]
			if sum == nil {
				continue
			}
			summarized = true
			for j := 0; j < sum.nresults && j < nres; j++ {
				if sum.resultSrc[j] != nil {
					vals[j] = vals[j].merge(taintVal{src: sum.resultSrc[j]})
				}
				for p := 0; p < len(args) && p < 64; p++ {
					if sum.resultParams[j]&(1<<p) != 0 {
						vals[j] = vals[j].merge(argVals[p])
					}
				}
			}
			for _, ps := range sum.paramSinks {
				if ps.param >= len(args) {
					continue
				}
				t := argVals[ps.param]
				if !t.live() || a.gated {
					continue
				}
				via := funcLabel(callee)
				if ps.via != "" {
					via += " -> " + ps.via
				}
				if t.src != nil {
					a.finding(call.Pos(), t.src, ps.sink, via)
				}
				a.recordParamSinks(t.params, ps.sink, via)
			}
			for p := 0; p < len(args) && p < 64; p++ {
				if sum.sanitizes&(1<<p) != 0 {
					if obj := a.rootObj(args[p]); obj != nil && !a.sanitized[obj] {
						a.sanitized[obj] = true
						a.changed = true
					}
				}
			}
		}
		if summarized {
			return vals
		}
	}
	// Unknown callee (stdlib, function value, builtin): inputs merge
	// into results, and — for decode-into shapes — into pointer-shaped
	// arguments. Nothing is cleared.
	var merged taintVal
	args := argExprs(call, fn)
	for _, arg := range args {
		merged = merged.merge(a.val(arg))
	}
	if merged.live() {
		for _, arg := range call.Args {
			if pointerShaped(info, arg) {
				a.taintExpr(arg, taintVal{src: merged.src, params: merged.params})
			}
		}
	}
	vals := make([]taintVal, nres)
	for i := range vals {
		vals[i] = taintVal{src: merged.src, params: merged.params, chans: merged.chans}
	}
	return vals
}

// pointerShaped reports whether an argument can carry data out of a
// call (&x, or a pointer/slice/map-typed expression).
func pointerShaped(info *types.Info, arg ast.Expr) bool {
	if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return true
	}
	t := info.TypeOf(arg)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// callResults counts a call expression's results (a no-result call
// types as an empty tuple; a single result as its own type).
func callResults(info *types.Info, call *ast.CallExpr) int {
	t := info.TypeOf(call)
	if t == nil || t == types.Typ[types.Invalid] {
		return 0
	}
	if tuple, ok := t.(*types.Tuple); ok {
		return tuple.Len()
	}
	return 1
}

// recordParamSinks folds "parameter p reaches this sink" facts into
// the summary. Facts are deduplicated by (param, sink) only — the via
// chain is a display aid, and keying on it would let mutually
// recursive wrappers (the adversary proxies re-dispatching through
// server.Server) mint an unbounded family of ever-longer chains for
// the same underlying fact, destabilizing the fixpoint.
func (a *fnTaint) recordParamSinks(params uint64, sink, via string) {
	for p := 0; p < 64 && params>>p != 0; p++ {
		if params&(1<<p) == 0 {
			continue
		}
		found := false
		for _, ps := range a.sum.paramSinks {
			if ps.param == p && ps.sink == sink {
				found = true
				break
			}
		}
		if !found && len(a.sum.paramSinks) < 64 {
			a.sum.paramSinks = append(a.sum.paramSinks, paramSink{param: p, sink: sink, via: via})
			sort.Slice(a.sum.paramSinks, func(i, j int) bool {
				x, y := a.sum.paramSinks[i], a.sum.paramSinks[j]
				if x.param != y.param {
					return x.param < y.param
				}
				return x.sink < y.sink
			})
			a.changed = true
		}
	}
}

// returnStmt folds returned taint into the summary and checks
// delivery sinks.
func (a *fnTaint) returnStmt(ret *ast.ReturnStmt) {
	sig := a.node.Fn.Type().(*types.Signature)
	var vals []taintVal
	switch {
	case len(ret.Results) == a.sum.nresults:
		for _, r := range ret.Results {
			vals = append(vals, a.val(r))
		}
	case len(ret.Results) == 1 && a.sum.nresults > 1:
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			vals = a.callTaints(call)
		}
	case len(ret.Results) == 0:
		// Naked return: taint of the named result variables.
		for i := 0; i < sig.Results().Len(); i++ {
			obj := sig.Results().At(i)
			if a.sanitized[obj] {
				vals = append(vals, taintVal{})
			} else {
				vals = append(vals, a.tainted[obj])
			}
		}
	}
	deliver, isDelivery := a.e.spec.deliveries[a.node.Fn.FullName()]
	for j := 0; j < len(vals) && j < a.sum.nresults; j++ {
		t := vals[j]
		if a.gated || !t.live() {
			continue
		}
		if t.src != nil && a.sum.resultSrc[j] == nil {
			a.sum.resultSrc[j] = t.src
			a.changed = true
		}
		if a.sum.resultParams[j]|t.params != a.sum.resultParams[j] {
			a.sum.resultParams[j] |= t.params
			a.changed = true
		}
		if isDelivery && a.report && t.src != nil && !isErrorType(sig.Results().At(j).Type()) {
			a.finding(ret.Pos(), t.src, deliver, "")
		}
	}
	// Summary param-sinks for deliveries: a caller handing this
	// function untrusted data that it would deliver is equivalent to a
	// sink hit inside.
	if isDelivery && !a.gated {
		for j := 0; j < len(vals) && j < a.sum.nresults; j++ {
			if !isErrorType(sig.Results().At(j).Type()) {
				a.recordParamSinks(vals[j].params, deliver, "")
			}
		}
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// truncateVia caps a displayed callee chain at four hops — past that
// the chain names implementation detail, not the defect.
func truncateVia(via string) string {
	const sep, max = " -> ", 4
	parts := strings.Split(via, sep)
	if len(parts) <= max {
		return via
	}
	return strings.Join(parts[:max], sep) + " -> …"
}

// finding emits one verified-flow diagnostic (deduplicated, scoped to
// the report packages).
func (a *fnTaint) finding(pos token.Pos, src *taintOrigin, sink, via string) {
	if !a.report {
		return
	}
	e := a.e
	if e.spec.reportIn != nil && !e.spec.reportIn(a.node.Pkg.Rel) {
		return
	}
	srcPos := e.m.Fset.Position(src.pos)
	// One finding per (site, source, sink): alternative call chains to
	// the same sink are the same defect.
	key := fmt.Sprintf("%d|%s|%s", pos, src.desc, sink)
	if e.reported[key] {
		return
	}
	e.reported[key] = true
	msg := fmt.Sprintf("untrusted input reaches %s with no verification on the path: source is %s at %s:%d",
		sink, src.desc, e.m.relFile(srcPos.Filename), srcPos.Line)
	if via = truncateVia(via); via != "" {
		msg += " (via " + via + ")"
	}
	msg += "; route the value through VO/signature verification or add a reasoned //lint:ignore " + e.spec.pass
	e.diags = append(e.diags, e.m.diagf(e.spec.pass, pos, "%s", msg))
}
