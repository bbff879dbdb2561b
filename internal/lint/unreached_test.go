package lint

import (
	"go/ast"
	"go/parser"
	"go/types"
	"testing"
)

// stdIfaces: the library calls module methods through these interfaces.
const stdIfaces = `package roots
import ("fmt"; "go/types"; "io"; "net")
type (a = error; b = fmt.Stringer; c = io.Reader; d = io.Writer; e = io.WriterAt; f = net.Conn; g = net.Listener
	h = types.Importer; unwrapper interface{ Unwrap() error }; iser interface{ Is(error) bool })`

// unreachedAllowed: what only tests reach, kept for the reason given.
var unreachedAllowed = map[string]string{
	"(*trustedcvs/internal/merkle.VO).Replay":          "the persistent replay merkle's property tests and the root package's E2 benchmark judge the in-place verifier against",
	"(*trustedcvs/internal/witness.Publisher).LastErr": "the deploy tests observe a publisher through it",
	"trustedcvs/internal/vdb.NewSession":               "the single-user Doer of the cvs and workspace tests, which cannot use a driver: driver imports cvs",
	"trustedcvs/internal/wire.Registered":              "the golden tag-table test in package wire_test reads the registry through it",
	"trustedcvs/internal/wire/wiretest":                "test support: only _test.go files import it, and check.sh keeps production from linking it",
}

// TestNothingUnreached fails on any function the call graph does not
// reach from main, init, package-level declarations, the root package's
// API and every method of a type it names, or a stdIfaces method.
// benchmark/ loads as one more main package; tests are no root.
func TestNothingUnreached(t *testing.T) {
	m, err := LoadModule("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := parser.ParseFile(m.Fset, "roots.go", stdIfaces, 0)
	ifaces, _ := (&types.Config{Importer: m.std, Error: func(err error) { t.Fatal(err) }}).Check("roots", m.Fset, []*ast.File{f}, nil)
	var work []*types.Func
	for _, pkg := range m.modulePackages() {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, _ := n.(*ast.Ident)
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
					work = append(work, fn)
				}
				fd, isFunc := n.(*ast.FuncDecl)
				return !isFunc || fd.Recv == nil && fd.Name.Name == "init"
			})
		}
		for _, name := range pkg.Types.Scope().Names() {
			obj := pkg.Types.Scope().Lookup(name)
			api := pkg.ImportPath == m.Path && obj.Exported()
			if fn, ok := obj.(*types.Func); ok && (api || name == "main") {
				work = append(work, fn)
			}
			for i, ms := 0, types.NewMethodSet(types.NewPointer(obj.Type())); i < ms.Len(); i++ {
				for _, n := range ifaces.Scope().Names() {
					iface, meth := ifaces.Scope().Lookup(n).Type().Underlying().(*types.Interface), ms.At(i).Obj()
					if im, _, _ := types.LookupFieldOrMethod(iface, false, nil, meth.Name()); api && meth.Exported() || im != nil && types.Implements(ms.At(i).Recv(), iface) {
						work = append(work, meth.(*types.Func))
					}
				}
			}
		}
	}
	g, seen := m.callGraph(), make(map[*types.Func]bool)
	for len(work) > 0 {
		fn := work[len(work)-1].Origin()
		if work = work[:len(work)-1]; g.Nodes[fn] != nil && !seen[fn] {
			seen[fn] = true
			for _, e := range g.Nodes[fn].Edges {
				work = append(work, e.Callees...)
			}
		}
	}
	for _, fn := range g.order {
		if !seen[fn] && fn.Name() != "init" && unreachedAllowed[fn.FullName()]+unreachedAllowed[fn.Pkg().Path()] == "" {
			t.Errorf("%s: %s is reached by no program, API or benchmark", m.relFile(m.Fset.Position(fn.Pos()).Filename), fn.FullName())
		}
	}
}
