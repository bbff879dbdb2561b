package lint

import (
	"go/ast"
	"go/types"
)

// passLockScope guards PR 1's "narrow serial section" win: inside
// internal/vdb, internal/core/..., and internal/transport, no call
// from the configured slow-call set (gob encode/decode, Ed25519
// sign/verify, net.Conn reads/writes, os.File I/O, and the module's
// own wrappers around them) may appear lexically between a mutex Lock
// and its Unlock. One blocking call re-inserted under the vdb.DB or a
// protocol mutex reverts the E13 concurrency win without failing any
// test — exactly the regression a compiler cannot see.
//
// The analysis is lexical, per statement list: a `defer mu.Unlock()`
// keeps the section open to the end of the enclosing function, an
// explicit `mu.Unlock()` closes it. Function literals are skipped
// (goroutines and callbacks run on their own schedule), and calls made
// *indirectly* under the lock (via a helper) are only caught if the
// helper itself is in the slow-call set — the set therefore includes
// the module's own codec/signing wrappers.
var passLockScope = &Pass{
	Name: nameLockScope,
	Doc:  "slow calls (codec, crypto, network, disk) inside mutex critical sections of the hot-path packages",
	Run:  runLockScope,
}

// internal/audit is in scope because the async auditor's whole value
// is that verification (hashing, VO replay, signature checks) happens
// off the hot path: one slow call slipped under the queue mutex makes
// Submit block behind the drain and silently reverts E17's win.
var lockscopeScope = []string{"internal/vdb", "internal/core", "internal/transport", "internal/audit"}

// Mutex acquire/release method sets, by FullName.
var (
	lockFuncs = map[string]bool{
		"(*sync.Mutex).Lock":    true,
		"(*sync.RWMutex).Lock":  true,
		"(*sync.RWMutex).RLock": true,
	}
	unlockFuncs = map[string]bool{
		"(*sync.Mutex).Unlock":    true,
		"(*sync.RWMutex).Unlock":  true,
		"(*sync.RWMutex).RUnlock": true,
	}
)

func runLockScope(m *Module) []Diag {
	var out []Diag
	for _, pkg := range m.Pkgs {
		if !underAny(pkg.Rel, lockscopeScope...) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				s := &lockScanner{m: m, pkg: pkg, out: &out}
				s.scan(fd.Body.List, nil)
			}
		}
	}
	return out
}

// heldLock is one lexically held mutex.
type heldLock struct {
	recv string // rendered receiver expression, e.g. "db.mu"
	line int
}

type lockScanner struct {
	m   *Module
	pkg *Package
	out *[]Diag
}

// scan walks one statement list tracking which mutexes are lexically
// held. Nested blocks are scanned with a copy of the held set; lock
// state changes inside them do not leak out (a lexical approximation
// that matches every locking pattern in this codebase).
func (s *lockScanner) scan(stmts []ast.Stmt, held []heldLock) {
	held = append([]heldLock(nil), held...)
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
			if recv, kind := s.lockOp(st.X); kind == opLock {
				held = append(held, heldLock{recv: recv, line: s.m.Fset.Position(st.Pos()).Line})
				continue
			} else if kind == opUnlock {
				held = removeLock(held, recv)
				continue
			}
			s.inspect(st, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the section open to the end of
			// the function, so it does not alter the held set; any
			// other deferred call runs while the lock is still held.
			if _, kind := s.lockOp(st.Call); kind == opNone {
				s.inspect(st, held)
			}
		case *ast.GoStmt:
			// The goroutine body runs on its own schedule, not under
			// this critical section.
		case *ast.BlockStmt:
			s.scan(st.List, held)
		case *ast.IfStmt:
			s.inspectParts(held, st.Init, wrapExpr(st.Cond))
			s.scan(st.Body.List, held)
			if st.Else != nil {
				s.scan([]ast.Stmt{st.Else}, held)
			}
		case *ast.ForStmt:
			s.inspectParts(held, st.Init, wrapExpr(st.Cond), st.Post)
			s.scan(st.Body.List, held)
		case *ast.RangeStmt:
			s.inspectParts(held, wrapExpr(st.X))
			s.scan(st.Body.List, held)
		case *ast.SwitchStmt:
			s.inspectParts(held, st.Init, wrapExpr(st.Tag))
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					s.scan(cc.Body, held)
				}
			}
		case *ast.TypeSwitchStmt:
			s.inspectParts(held, st.Init, st.Assign)
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					s.scan(cc.Body, held)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					s.inspectParts(held, cc.Comm)
					s.scan(cc.Body, held)
				}
			}
		default:
			s.inspect(stmt, held)
		}
	}
}

func wrapExpr(e ast.Expr) ast.Stmt {
	if e == nil {
		return nil
	}
	return &ast.ExprStmt{X: e}
}

func (s *lockScanner) inspectParts(held []heldLock, parts ...ast.Stmt) {
	for _, p := range parts {
		if p != nil {
			s.inspect(p, held)
		}
	}
}

// inspect flags slow calls inside node while any lock is held,
// skipping function literals.
func (s *lockScanner) inspect(node ast.Node, held []heldLock) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(s.pkg.Info, call)
		if fn == nil {
			return true
		}
		if full := fn.FullName(); s.m.slowCalls[full] {
			lk := held[len(held)-1]
			*s.out = append(*s.out, s.m.diagf(nameLockScope, call.Pos(),
				"slow call %s inside the critical section of %s.Lock() (line %d): keep the serial section narrow — move it after Unlock or into a Finish-style stage",
				full, lk.recv, lk.line))
		}
		return true
	})
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies an expression as a mutex Lock/Unlock call and
// returns the rendered receiver ("db.mu").
func (s *lockScanner) lockOp(e ast.Expr) (string, lockOpKind) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", opNone
	}
	fn := calleeFunc(s.pkg.Info, call)
	if fn == nil {
		return "", opNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	full := fn.FullName()
	switch {
	case lockFuncs[full]:
		return types.ExprString(sel.X), opLock
	case unlockFuncs[full]:
		return types.ExprString(sel.X), opUnlock
	}
	return "", opNone
}

func removeLock(held []heldLock, recv string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].recv == recv {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}
