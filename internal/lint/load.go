package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a loaded, type-checked view of one Go module. Test files
// (_test.go) are excluded: the invariants guard production code, and
// tests legitimately use math/rand, raw frames, and friends.
type Module struct {
	Root string // absolute path of the module root (directory of go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // the packages named by the load patterns, sorted by path

	pkgs      map[string]*Package // every loaded package, including dependencies
	slowCalls map[string]bool     // lockscope's slow-call set, keyed by (*types.Func).FullName
	loading   map[string]bool     // cycle guard
	stdGC     types.Importer      // gc export-data importer for the standard library
	stdSrc    types.Importer      // source-importer fallback
	ignores   map[string][]*ignoreDirective
	ranPasses map[string]bool // passes executed by Run (read by deadignore)
	cg        *CallGraph      // lazily built by callGraph()
	lg        *LockGraph      // lazily built by lockGraph()
}

// Package is one type-checked package of the module.
type Package struct {
	ImportPath string
	Rel        string // module-relative path ("" for the root package)
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// LoadModule locates the module containing dir, then parses and
// type-checks the packages matched by patterns (each pattern is a
// directory relative to dir, optionally ending in "/..."; "./..."
// loads the whole module). Dependencies inside the module are loaded
// transitively; the standard library is imported from export data.
func LoadModule(dir string, patterns []string) (*Module, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, path, err := findModule(absDir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:      root,
		Path:      path,
		Fset:      token.NewFileSet(),
		slowCalls: defaultSlowCalls(path),
		pkgs:      make(map[string]*Package),
		loading:   make(map[string]bool),
		ignores:   make(map[string][]*ignoreDirective),
	}
	dirs, err := m.expand(absDir, patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("lint: no Go packages matched %v", patterns)
	}
	for _, d := range dirs {
		ip, err := m.importPathFor(d)
		if err != nil {
			return nil, err
		}
		pkg, err := m.load(ip)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].ImportPath < m.Pkgs[j].ImportPath })
	return m, nil
}

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			p := modFilePath(data)
			if p == "" {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return d, p, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

func modFilePath(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(strings.TrimSpace(line))
		if len(f) >= 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// expand resolves load patterns into package directories.
func (m *Module) expand(start string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "..." || pat == "./...":
			walked, err := walkPackageDirs(m.Root)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(start, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			walked, err := walkPackageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		default:
			d := filepath.Join(start, filepath.FromSlash(pat))
			names, err := goFilesIn(d)
			if err != nil {
				return nil, err
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("lint: no Go files in %s", d)
			}
			add(d)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// walkPackageDirs finds every directory under base holding at least one
// non-test Go file, skipping testdata, vendor, hidden and underscore
// directories (the same dirs the go tool skips for "./...").
func walkPackageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(p)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs, err
}

// goFilesIn lists the non-test Go files of one directory that build on
// this platform (file-name suffixes and //go:build lines, as the go
// tool reads them).
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// importPathFor maps a directory inside the module to its import path.
func (m *Module) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, m.Root)
	}
	if rel == "." {
		return m.Path, nil
	}
	return m.Path + "/" + filepath.ToSlash(rel), nil
}

// load parses and type-checks one module package (cached).
func (m *Module) load(importPath string) (*Package, error) {
	if p, ok := m.pkgs[importPath]; ok {
		return p, nil
	}
	if m.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	m.loading[importPath] = true
	defer delete(m.loading, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, m.Path), "/")
	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	m.collectIgnores(files)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var terrs []error
	conf := types.Config{
		Importer: moduleImporter{m},
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(importPath, m.Fset, files, info)
	if len(terrs) > 0 {
		if len(terrs) > 3 {
			terrs = terrs[:3]
		}
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, terrs)
	}
	pkg := &Package{
		ImportPath: importPath,
		Rel:        rel,
		Dir:        dir,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	m.pkgs[importPath] = pkg
	return pkg, nil
}

// moduleImporter routes module-internal imports back through the
// loader and everything else to the standard-library importers.
type moduleImporter struct{ m *Module }

func (mi moduleImporter) Import(path string) (*types.Package, error) {
	return mi.m.importPkg(path)
}

func (m *Module) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if m.stdGC == nil {
		m.stdGC = importer.Default()
	}
	if p, err := m.stdGC.Import(path); err == nil {
		return p, nil
	}
	// Fallback: type-check the dependency from source (works in
	// environments without export data for some packages).
	if m.stdSrc == nil {
		m.stdSrc = importer.ForCompiler(m.Fset, "source", nil)
	}
	return m.stdSrc.Import(path)
}

// diagf builds a Diag at a position.
func (m *Module) diagf(pass string, pos token.Pos, format string, args ...any) Diag {
	p := m.Fset.Position(pos)
	return Diag{
		Pass: pass,
		File: m.relFile(p.Filename),
		Line: p.Line,
		Col:  p.Column,
		Msg:  fmt.Sprintf(format, args...),
	}
}

func (m *Module) relFile(abs string) string {
	if r, err := filepath.Rel(m.Root, abs); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filepath.ToSlash(abs)
}

// defaultSlowCalls is the seed slow-call set for lockscope: work that
// must never run inside a protocol or database critical section. Keys
// are (*types.Func).FullName strings; module-local wrappers around the
// same work are included so one level of indirection cannot hide a
// blocking call. The module itself no longer imports gob; its two
// entries stay for the fixture corpus (vdb/lock.go), which plants it as
// the slow codec under a lock.
func defaultSlowCalls(modPath string) map[string]bool {
	set := map[string]bool{
		"crypto/ed25519.Sign":            true,
		"crypto/ed25519.Verify":          true,
		"(*encoding/gob.Encoder).Encode": true,
		"(*encoding/gob.Decoder).Decode": true,
		"(net.Conn).Read":                true,
		"(net.Conn).Write":               true,
		"(*net.TCPConn).Read":            true,
		"(*net.TCPConn).Write":           true,
		"(*os.File).Read":                true,
		"(*os.File).ReadAt":              true,
		"(*os.File).Write":               true,
		"(*os.File).WriteAt":             true,
		"(*os.File).Sync":                true,
		"os.ReadFile":                    true,
		"os.WriteFile":                   true,
	}
	for _, f := range []string{
		"(*%s/internal/wire.Encoder).Encode",
		"(*%s/internal/wire.Encoder).EncodeBudget",
		"(*%s/internal/wire.Decoder).Decode",
		"(*%s/internal/wire.Conn).Call",
		"(*%s/internal/wire.Conn).CallBudget",
		"(*%s/internal/sig.Signer).Sign",
		"(*%s/internal/sig.Ring).Verify",
		// Fault-injection hooks delay, drop, or kill: consulting one
		// inside a critical section stalls every waiter behind a
		// deliberately induced fault.
		"(*%s/internal/fault.Conn).Read",
		"(*%s/internal/fault.Conn).Write",
		"(*%s/internal/fault.Injector).Next",
	} {
		set[fmt.Sprintf(f, modPath)] = true
	}
	return set
}
