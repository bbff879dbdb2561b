package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
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
	checking  map[string]bool     // cycle guard
	std       types.Importer      // the standard library, from export data
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
// transitively; the standard library is imported from export data,
// which one `go list -export` run locates for every standard package
// the parsed files import.
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
		checking:  make(map[string]bool),
		ignores:   make(map[string][]*ignoreDirective),
	}
	dirs, err := m.expand(absDir, patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("lint: no Go packages matched %v", patterns)
	}
	std := make(map[string]bool)
	for _, d := range dirs {
		ip, err := m.importPathFor(d)
		if err != nil {
			return nil, err
		}
		pkg, err := m.parse(ip, std)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	if m.std, err = stdImporter(m.Fset, std); err != nil {
		return nil, err
	}
	for _, pkg := range m.Pkgs {
		if err := m.check(pkg); err != nil {
			return nil, err
		}
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

// parse parses one module package (cached) and, transitively, the
// module packages it imports, adding every other import to std.
func (m *Module) parse(importPath string, std map[string]bool) (*Package, error) {
	if p, ok := m.pkgs[importPath]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, m.Path), "/")
	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg := &Package{ImportPath: importPath, Rel: rel, Dir: dir}
	for _, name := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	m.collectIgnores(pkg.Files)
	m.pkgs[importPath] = pkg
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			switch {
			case err != nil || path == "unsafe":
			case m.inModule(path):
				if _, err := m.parse(path, std); err != nil {
					return nil, err
				}
			default:
				std[path] = true
			}
		}
	}
	return pkg, nil
}

// check type-checks a parsed package, its module imports first.
func (m *Module) check(pkg *Package) error {
	if pkg.Types != nil {
		return nil
	}
	if m.checking[pkg.ImportPath] {
		return fmt.Errorf("lint: import cycle through %s", pkg.ImportPath)
	}
	m.checking[pkg.ImportPath] = true
	defer delete(m.checking, pkg.ImportPath)

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
	tpkg, _ := conf.Check(pkg.ImportPath, m.Fset, pkg.Files, info)
	if len(terrs) > 0 {
		if len(terrs) > 3 {
			terrs = terrs[:3]
		}
		return fmt.Errorf("lint: type-checking %s: %v", pkg.ImportPath, terrs)
	}
	pkg.Types, pkg.Info = tpkg, info
	return nil
}

// moduleImporter routes module-internal imports back through the
// checker and everything else to the standard-library importer.
type moduleImporter struct{ m *Module }

func (mi moduleImporter) Import(path string) (*types.Package, error) {
	m := mi.m
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !m.inModule(path) {
		return m.std.Import(path)
	}
	pkg := m.pkgs[path]
	if pkg == nil {
		return nil, fmt.Errorf("lint: %s was not parsed", path)
	}
	if err := m.check(pkg); err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// stdImporter imports the standard library from the gc export data of
// the packages in paths, located by one `go list -export` run of the
// toolchain go/importer itself would ask (GOROOT's go command, run in
// GOROOT, so the module's own settings do not apply).
func stdImporter(fset *token.FileSet, paths map[string]bool) (types.Importer, error) {
	exports := make(map[string]string)
	if len(paths) > 0 {
		args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
		for p := range paths {
			args = append(args, p)
		}
		goroot := build.Default.GOROOT
		cmd := exec.Command(filepath.Join(goroot, "bin", "go"), args...)
		cmd.Dir = goroot
		cmd.Env = append(os.Environ(), "PWD="+goroot, "GOROOT="+goroot)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("lint: go list -export: %v: %s", err, stderr.Bytes())
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				exports[path] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// targets returns the packages the load patterns named, as a set: the
// passes that walk the whole-module graphs report only inside them.
func (m *Module) targets() map[*Package]bool {
	set := make(map[*Package]bool, len(m.Pkgs))
	for _, p := range m.Pkgs {
		set[p] = true
	}
	return set
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
