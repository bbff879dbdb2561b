package lint

import (
	"go/ast"
	"go/types"
)

// passSyncDiscipline enforces the crash-durability ordering convention
// on the repo's durability paths (internal/durable, internal/wal,
// internal/server, cmd/tcvs-server): publishing a durable artifact must be preceded by
// an fsync of the data it makes reachable. Concretely, two publishing
// sinks are checked:
//
//   - a Rename call (the tmp→rename-into-place pattern, today only
//     durable.WriteFileAtomic): the renamed bytes must have been synced first, or a crash
//     can land the new name on a file whose content is still in the
//     page cache — the checksummed-snapshot and cursor formats detect
//     the torn result, but the previous good generation is already
//     gone;
//   - a Create call in internal/wal inside a function that never
//     renames (publish-by-create — a fresh journal segment): the
//     predecessor segment must have been sealed (synced) first, or
//     replay can see the new segment while the old one's tail frames
//     are lost, a mid-journal gap the frame checksums cannot explain.
//
// The required sync (a callee named Sync or SyncDir, or a module
// function that provably reaches one — summaries propagate through the
// static call graph to a fixpoint; a data-only SyncData is the append
// hot path's flush, not a seal, and earns no credit: a segment is
// sealed by trim + full Sync) must appear lexically before the
// sink in the same function body. Lexical order over-approximates
// control flow: a sync in any earlier branch counts. Function literals
// are not walked for sinks and earn no sync credit — when a closure
// runs is unknowable statically. Deliberate exceptions (the journal's
// first segment has no predecessor) carry a //lint:ignore directive on
// the function declaration, where findings are anchored.
var passSyncDiscipline = &Pass{
	Name: nameSyncDiscipline,
	Doc:  "durable publish (rename-into-place, segment create) with no preceding fsync",
	Run:  runSyncDiscipline,
}

var syncDisciplineScope = []string{"internal/durable", "internal/wal", "internal/server", "cmd/tcvs-server"}

func runSyncDiscipline(m *Module) []Diag {
	syncs := syncSummaries(m)
	var out []Diag
	for _, pkg := range m.Pkgs {
		if !underAny(pkg.Rel, syncDisciplineScope...) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, checkSyncDiscipline(m, pkg, fd, syncs)...)
			}
		}
	}
	return out
}

// checkSyncDiscipline walks one function body in source order tracking
// whether a sync has happened yet, and reports the first unsynced
// publishing sink. The finding is anchored at the function declaration:
// the discipline is a property of the function's whole ordering, and
// that is where exceptions are annotated.
func checkSyncDiscipline(m *Module, pkg *Package, fd *ast.FuncDecl, syncs map[*types.Func]bool) []Diag {
	renames := false
	callsInOrder(fd.Body, func(call *ast.CallExpr) {
		if fn := calleeFunc(pkg.Info, call); fn != nil && fn.Name() == "Rename" {
			renames = true
		}
	})
	synced := false
	var bad *ast.CallExpr
	var what string
	callsInOrder(fd.Body, func(call *ast.CallExpr) {
		fn := calleeFunc(pkg.Info, call)
		if fn == nil {
			return
		}
		switch fn.Name() {
		case "Sync", "SyncDir":
			synced = true
		case "Rename":
			if !synced && bad == nil {
				bad, what = call, "rename into place"
			}
		case "Create":
			// Publish-by-create is a journal-segment idiom; elsewhere a
			// Create is just a tmp file on its way to a synced rename.
			if underAny(pkg.Rel, "internal/wal") && !renames && !synced && bad == nil {
				bad, what = call, "segment create"
			}
		default:
			if syncs[fn] {
				synced = true
			}
		}
	})
	if bad == nil {
		return nil
	}
	return []Diag{m.diagf(nameSyncDiscipline, fd.Name.Pos(),
		"%s with no preceding fsync at line %d of %s: sync the predecessor data (File.Sync / FS.SyncDir, directly or via a callee) before publishing, or annotate the vetted exception",
		what, m.Fset.Position(bad.Pos()).Line, pkg.Rel)}
}

// syncSummaries computes, to a fixpoint over the static call graph,
// which module functions provably reach a Sync/SyncDir call — so a
// sync wrapped in a helper (sealing a segment, flushing a generation)
// still credits its caller.
func syncSummaries(m *Module) map[*types.Func]bool {
	g := m.callGraph()
	syncs := make(map[*types.Func]bool)
	for _, fn := range g.order {
		node := g.Nodes[fn]
		callsInOrder(node.Decl.Body, func(call *ast.CallExpr) {
			if c := calleeFunc(node.Pkg.Info, call); c != nil {
				if name := c.Name(); name == "Sync" || name == "SyncDir" {
					syncs[fn] = true
				}
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.order {
			if syncs[fn] {
				continue
			}
			for _, e := range g.Nodes[fn].Edges {
				if e.Call == nil {
					continue // a bare reference is not a call on this path
				}
				for _, c := range e.Callees {
					if syncs[c] {
						syncs[fn] = true
						changed = true
						break
					}
				}
				if syncs[fn] {
					break
				}
			}
		}
	}
	return syncs
}

// callsInOrder visits every call expression under body in source
// order, without descending into function literals: when a closure
// runs is unknowable statically, so it neither credits a sync nor
// publishes on the enclosing function's behalf.
func callsInOrder(body *ast.BlockStmt, visit func(*ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}
