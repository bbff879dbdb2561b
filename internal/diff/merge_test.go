package diff

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMergeDisjointEdits(t *testing.T) {
	base := "a\nb\nc\nd\ne\n"
	ours := "A\nb\nc\nd\ne\n"   // edit line 1
	theirs := "a\nb\nc\nd\nE\n" // edit line 5
	m := Merge3(base, ours, theirs)
	if m.Conflicts != 0 {
		t.Fatalf("disjoint edits conflicted:\n%s", m.Merged())
	}
	if m.Merged() != "A\nb\nc\nd\nE\n" {
		t.Fatalf("merged: %q", m.Merged())
	}
}

func TestMergeOneSideOnly(t *testing.T) {
	base := "a\nb\nc\n"
	ours := "a\nX\nc\n"
	m := Merge3(base, ours, base)
	if m.Conflicts != 0 || m.Merged() != ours {
		t.Fatalf("ours-only merge: %q (%d conflicts)", m.Merged(), m.Conflicts)
	}
	m = Merge3(base, base, ours)
	if m.Conflicts != 0 || m.Merged() != ours {
		t.Fatalf("theirs-only merge: %q", m.Merged())
	}
	m = Merge3(base, base, base)
	if m.Conflicts != 0 || m.Merged() != base {
		t.Fatalf("no-op merge: %q", m.Merged())
	}
}

func TestMergeIdenticalChanges(t *testing.T) {
	base := "a\nb\nc\n"
	both := "a\nX\nc\n"
	m := Merge3(base, both, both)
	if m.Conflicts != 0 || m.Merged() != both {
		t.Fatalf("identical changes should merge cleanly: %q (%d)", m.Merged(), m.Conflicts)
	}
}

func TestMergeConflict(t *testing.T) {
	base := "a\nb\nc\n"
	ours := "a\nOURS\nc\n"
	theirs := "a\nTHEIRS\nc\n"
	m := Merge3(base, ours, theirs)
	if m.Conflicts != 1 {
		t.Fatalf("want 1 conflict, got %d:\n%s", m.Conflicts, m.Merged())
	}
	doc := m.Merged()
	for _, want := range []string{MarkerOurs, "OURS", MarkerSep, "THEIRS", MarkerTheirs} {
		if !strings.Contains(doc, want) {
			t.Fatalf("missing %q in:\n%s", want, doc)
		}
	}
	if !HasConflictMarkers(doc) {
		t.Fatal("HasConflictMarkers should see the markers")
	}
	// First and last lines survive outside the conflict.
	if !strings.HasPrefix(doc, "a\n") || !strings.HasSuffix(doc, "c\n") {
		t.Fatalf("context lost:\n%s", doc)
	}
}

func TestMergeBothDelete(t *testing.T) {
	base := "a\nb\nc\n"
	edited := "a\nc\n"
	m := Merge3(base, edited, edited)
	if m.Conflicts != 0 || m.Merged() != edited {
		t.Fatalf("identical deletions: %q (%d)", m.Merged(), m.Conflicts)
	}
}

func TestMergeDeleteVsEdit(t *testing.T) {
	base := "a\nb\nc\n"
	ours := "a\nc\n"       // deleted b
	theirs := "a\nB!\nc\n" // edited b
	m := Merge3(base, ours, theirs)
	if m.Conflicts == 0 {
		t.Fatalf("delete-vs-edit must conflict:\n%s", m.Merged())
	}
}

func TestMergeInsertionsAtSamePoint(t *testing.T) {
	base := "a\nz\n"
	ours := "a\nours\nz\n"
	theirs := "a\ntheirs\nz\n"
	m := Merge3(base, ours, theirs)
	if m.Conflicts == 0 {
		t.Fatalf("same-point insertions must conflict:\n%s", m.Merged())
	}
}

func TestMergeAppendsBothEnds(t *testing.T) {
	base := "m\n"
	ours := "top\nm\n"
	theirs := "m\nbottom\n"
	m := Merge3(base, ours, theirs)
	if m.Conflicts != 0 || m.Merged() != "top\nm\nbottom\n" {
		t.Fatalf("merge: %q (%d)", m.Merged(), m.Conflicts)
	}
}

func TestMergeEmptyBase(t *testing.T) {
	m := Merge3("", "ours\n", "theirs\n")
	if m.Conflicts == 0 {
		t.Fatalf("both creating different content must conflict:\n%s", m.Merged())
	}
	m = Merge3("", "same\n", "same\n")
	if m.Conflicts != 0 || m.Merged() != "same\n" {
		t.Fatalf("identical creations: %q", m.Merged())
	}
}

func TestHasConflictMarkersNegative(t *testing.T) {
	if HasConflictMarkers("normal\ntext\n") {
		t.Fatal("false positive")
	}
	// A line merely containing (not equal to) a marker is fine.
	if HasConflictMarkers("x " + MarkerSep + "\n") {
		t.Fatal("marker must match the whole line")
	}
}

// TestQuickMergeLaws pins diff3's algebraic laws on random documents:
// merge(b, x, b) == x, merge(b, b, x) == x, merge(b, x, x) == x, and
// clean merges of disjoint single-line edits contain both edits.
func TestQuickMergeLaws(t *testing.T) {
	gen := func(rng *rand.Rand, n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "line-%d-%d\n", i, rng.Intn(5))
		}
		return sb.String()
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := gen(rng, 2+rng.Intn(30))
		x := mutateDoc(rng, base)
		if m := Merge3(base, x, base); m.Conflicts != 0 || m.Merged() != x {
			t.Logf("merge(b,x,b) != x")
			return false
		}
		if m := Merge3(base, base, x); m.Conflicts != 0 || m.Merged() != x {
			t.Logf("merge(b,b,x) != x")
			return false
		}
		if m := Merge3(base, x, x); m.Conflicts != 0 || m.Merged() != x {
			t.Logf("merge(b,x,x) != x")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeDisjointRegions: edits confined to opposite halves of
// a sufficiently large base always merge cleanly with both edits
// present.
func TestQuickMergeDisjointRegions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var lines []string
		for i := 0; i < 40; i++ {
			lines = append(lines, fmt.Sprintf("l%02d\n", i))
		}
		base := strings.Join(lines, "")
		oursIdx := rng.Intn(15)        // edit in the top half
		theirsIdx := 25 + rng.Intn(15) // edit in the bottom half
		ours := strings.Replace(base, fmt.Sprintf("l%02d\n", oursIdx), "OURS\n", 1)
		theirs := strings.Replace(base, fmt.Sprintf("l%02d\n", theirsIdx), "THEIRS\n", 1)
		m := Merge3(base, ours, theirs)
		return m.Conflicts == 0 &&
			strings.Contains(m.Merged(), "OURS\n") &&
			strings.Contains(m.Merged(), "THEIRS\n")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
