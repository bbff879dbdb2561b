package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// passErrDrop flags discarded error results from the verification and
// codec surface: functions and methods named Sign, Verify, Finish,
// Checkpoint, Encode, or Decode whose last result is an error. In this
// system a dropped error from one of these is not sloppiness but a
// protocol hole — an unchecked Verify is precisely the deviation the
// paper's detection guarantee forbids, and an unchecked codec error
// means a message or a journal record that was never written.
var passErrDrop = &Pass{
	Name: nameErrDrop,
	Doc:  "discarded errors from Sign/Verify/Finish/Checkpoint/Encode/Decode",
	Run:  runErrDrop,
}

var errDropNames = map[string]bool{
	"Sign":       true,
	"Verify":     true,
	"Finish":     true,
	"Checkpoint": true,
	"Encode":     true,
	"Decode":     true,
}

func runErrDrop(m *Module) []Diag {
	var out []Diag
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			// Method values bound to variables (f := enc.Encode) carry
			// the error obligation with them: a later defer f() or go
			// f() drops the same error the direct call would.
			bound := collectBoundMethods(pkg.Info, f)
			droppableHere := func(e ast.Expr) (*types.Func, bool) {
				return droppableOrBound(pkg.Info, bound, e)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.ExprStmt:
					if fn, ok := droppableHere(st.X); ok {
						out = append(out, dropDiag(m, st.Pos(), fn, "result discarded"))
					}
				case *ast.GoStmt:
					if fn, ok := droppableHere(st.Call); ok {
						out = append(out, dropDiag(m, st.Pos(), fn, "error lost in go statement"))
					}
				case *ast.DeferStmt:
					if fn, ok := droppableHere(st.Call); ok {
						out = append(out, dropDiag(m, st.Pos(), fn, "error lost in defer"))
					}
				case *ast.AssignStmt:
					if len(st.Rhs) == 1 {
						fn, ok := droppableHere(st.Rhs[0])
						if !ok {
							return true
						}
						// The error is the last result; flag it when that
						// position is assigned to the blank identifier.
						if len(st.Lhs) == results(fn) && isBlank(st.Lhs[len(st.Lhs)-1]) {
							out = append(out, dropDiag(m, st.Pos(), fn, "error assigned to _"))
						}
						return true
					}
					// Parallel assignment (_, _ = enc.Encode(x), y): each
					// RHS pairs with one LHS, so a single-result call
					// whose slot is blank is a dropped error.
					if len(st.Lhs) == len(st.Rhs) {
						for i, rhs := range st.Rhs {
							fn, ok := droppableHere(rhs)
							if !ok || results(fn) != 1 || !isBlank(st.Lhs[i]) {
								continue
							}
							out = append(out, dropDiag(m, st.Pos(), fn, "error assigned to _"))
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// collectBoundMethods indexes variables bound to a droppable function
// or method value within one file (f := enc.Encode; v := dec.Decode).
func collectBoundMethods(info *types.Info, f *ast.File) map[types.Object]*types.Func {
	bound := make(map[types.Object]*types.Func)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		fn := funcValue(info, rhs)
		if fn == nil || !droppableFunc(fn) {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			bound[obj] = fn
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					record(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return bound
}

// funcValue resolves an expression that references (without calling) a
// function or method.
func funcValue(info *types.Info, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

func dropDiag(m *Module, pos token.Pos, fn *types.Func, how string) Diag {
	return m.diagf(nameErrDrop, pos,
		"%s: %s returns an error that must be checked (verification and codec failures are protocol events, not noise)", how, fn.FullName())
}

// droppableOrBound reports whether e is a call to a droppable function
// — directly, or through a variable the file bound to one.
func droppableOrBound(info *types.Info, bound map[types.Object]*types.Func, e ast.Expr) (*types.Func, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			fn = bound[info.Uses[id]]
		}
	}
	if fn == nil || !droppableFunc(fn) {
		return nil, false
	}
	return fn, true
}

// droppableFunc reports whether fn is in the errdrop name set with a
// final error result.
func droppableFunc(fn *types.Func) bool {
	if !errDropNames[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

func results(fn *types.Func) int {
	return fn.Type().(*types.Signature).Results().Len()
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
