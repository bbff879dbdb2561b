package lint

import (
	"fmt"
	"strings"
	"testing"
)

// TestFixtureCorpus pins the analyzer's behavior on the golden fixture
// module: every planted violation must be reported with this exact
// pass, file, and line — and nothing else. The corpus also contains
// suppressed occurrences, correctly-narrowed variants, and a _test.go
// violation, all of which must stay silent.
func TestFixtureCorpus(t *testing.T) {
	m, err := LoadModule("testdata/src/fixture", []string{"./..."})
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	want := []struct {
		pass string
		file string
		line int
	}{
		{"lockscope", "internal/audit/queue.go", 25},           // ed25519.Verify in batch drain under Lock
		{"errdrop", "internal/codec/drop.go", 19},              // ExprStmt discard
		{"errdrop", "internal/codec/drop.go", 24},              // error assigned to _
		{"errdrop", "internal/codec/drop.go", 30},              // error lost in defer
		{"errdrop", "internal/codec/drop.go", 38},              // error lost in parallel blank assignment
		{"errdrop", "internal/codec/drop.go", 47},              // error lost in defer of a bound method value
		{"deadignore", "internal/codec/drop.go", 60},           // stale //lint:ignore suppressing nothing
		{"lockscope", "internal/core/sign.go", 20},             // ed25519.Sign under Lock
		{"lockorder", "internal/locks/locks.go", 33},           // Index/Journal cycle closed via lock() wrapper
		{"panicfree", "internal/server/entry.go", 29},          // panic via HandleOp
		{"boundedqueue", "internal/transport/admitq.go", 19},   // chan capacity from a parameter
		{"boundedqueue", "internal/transport/admitq.go", 40},   // receiver-field append with no visible bound
		{"lockscope", "internal/transport/conn.go", 20},        // net.Conn.Write under Lock
		{"lockscope", "internal/transport/faulty.go", 23},      // fault.Injector.Next under Lock
		{"sleepretry", "internal/transport/retrysleep.go", 12}, // time.Sleep in retry loop
		{"lockscope", "internal/vdb/lock.go", 22},              // gob Encode under defer-Unlock
		{"lockscope", "internal/vdb/lock.go", 41},              // gob Encode in a section a lock() wrapper opened
		{"syncdiscipline", "internal/wal/wal.go", 35},          // rename into place, no preceding fsync
		{"syncdiscipline", "internal/wal/wal.go", 87},          // segment created in place, predecessor unsealed
		{"syncdiscipline", "internal/wal/wal.go", 115},         // segment created after a data-only flush, which does not seal
	}
	got := Run(m, Passes())
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = fmt.Sprintf("%s:%d %s", got[i].File, got[i].Line, got[i].Pass)
		}
		if i < len(want) {
			w = fmt.Sprintf("%s:%d %s", want[i].file, want[i].line, want[i].pass)
		}
		if g != w {
			t.Errorf("finding %d:\n  got  %q\n  want %q", i, g, w)
		}
	}
	if t.Failed() {
		for _, d := range got {
			t.Logf("full: %s", d)
		}
	}
}

// TestFixtureSinglePass checks pass selection: running only errdrop
// over the corpus must yield exactly its five findings.
func TestFixtureSinglePass(t *testing.T) {
	m, err := LoadModule("testdata/src/fixture", []string{"./..."})
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	p := PassByName(nameErrDrop)
	if p == nil {
		t.Fatal("PassByName(errdrop) = nil")
	}
	got := Run(m, []*Pass{p})
	if len(got) != 5 {
		t.Fatalf("errdrop findings = %d, want 5: %v", len(got), got)
	}
	for _, d := range got {
		if d.Pass != nameErrDrop {
			t.Errorf("unexpected pass %q in filtered run", d.Pass)
		}
	}
}

// TestDeadIgnoreDecidability pins the stale-suppression rules: a
// directive is judged only when every pass it names actually ran.
func TestDeadIgnoreDecidability(t *testing.T) {
	load := func() *Module {
		m, err := LoadModule("testdata/src/fixture", []string{"./..."})
		if err != nil {
			t.Fatalf("load fixture module: %v", err)
		}
		return m
	}
	// errdrop ran: the stale errdrop directive is decidable and stale.
	got := Run(load(), []*Pass{PassByName(nameErrDrop), PassByName(nameDeadIgnore)})
	found := false
	for _, d := range got {
		if d.Pass == nameDeadIgnore && d.File == "internal/codec/drop.go" && d.Line == 60 {
			found = true
		}
	}
	if !found {
		t.Errorf("deadignore did not flag the stale errdrop directive: %v", got)
	}
	// errdrop did not run: the same directive must not be judged.
	for _, d := range Run(load(), []*Pass{PassByName(nameLockScope), PassByName(nameDeadIgnore)}) {
		if d.Pass == nameDeadIgnore {
			t.Errorf("deadignore judged an undecidable directive: %s", d)
		}
	}
}

// TestGraphDOT smoke-tests the -graph triage dumps: both graphs must
// render, contain the fixture's planted interprocedural edges, and
// render byte-identically from a second fresh load (the fixture's two
// locks.init functions share a full name, so only a total order keeps
// their edges in place).
func TestGraphDOT(t *testing.T) {
	load := func() *Module {
		m, err := LoadModule("testdata/src/fixture", []string{"./..."})
		if err != nil {
			t.Fatalf("load fixture module: %v", err)
		}
		return m
	}
	m := load()
	call := CallGraphDOT(m)
	if !strings.Contains(call, `"locks.ReindexBoth" -> "locks.(Journal).lock"`) {
		t.Errorf("call graph DOT lacks the ReindexBoth -> lock edge:\n%s", call)
	}
	lock := LockGraphDOT(m)
	if !strings.Contains(lock, `"internal/locks.Index.mu" -> "internal/locks.Journal.mu"`) {
		t.Errorf("lock graph DOT lacks the Index -> Journal edge:\n%s", lock)
	}
	if !strings.Contains(lock, `"internal/locks.Journal.mu" -> "internal/locks.Index.mu"`) {
		t.Errorf("lock graph DOT lacks the Journal -> Index edge:\n%s", lock)
	}
	again := load()
	if got := CallGraphDOT(again); got != call {
		t.Errorf("call graph DOT differs between two loads:\n%s\n---\n%s", call, got)
	}
	if got := LockGraphDOT(again); got != lock {
		t.Errorf("lock graph DOT differs between two loads:\n%s\n---\n%s", lock, got)
	}
}

// TestRepoIsClean runs every pass over the real module: the tree this
// test ships with must carry zero unsuppressed findings, so check.sh's
// lint gate can never be red on a healthy checkout.
func TestRepoIsClean(t *testing.T) {
	m, err := LoadModule("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, d := range Run(m, Passes()) {
		t.Errorf("unexpected finding on clean tree: %s", d)
	}
}

// Run executes the passes over the module, filters suppressed findings,
// and returns the rest sorted by position.
func Run(m *Module, passes []*Pass) []Diag {
	out, _ := RunTimed(m, passes)
	return out
}
