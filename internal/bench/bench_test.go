package bench

import (
	"slices"
	"strings"
	"testing"
)

// The experiment runners are exercised end to end; the assertions pin
// the *shapes* the paper predicts (see DESIGN.md §2), so a regression
// in any protocol shows up here as a wrong table, not just a crash.

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Columns) {
		t.Fatalf("%s: no cell (%d,%d); table %dx%d", tab.ID, row, col, len(tab.Rows), len(tab.Columns))
	}
	return tab.Rows[row][col]
}

func TestE1Shape(t *testing.T) {
	tab := E1()
	if len(tab.Rows) != 12 { // 3 k-values x 2 protocols x {sync, no-sync}
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		syncOn := row[1] == "every k ops"
		detected := row[3] == "yes"
		if syncOn && !detected {
			t.Errorf("row %d: sync enabled but not detected: %v", i, row)
		}
		if !syncOn && detected {
			t.Errorf("row %d: detected without external communication: %v", i, row)
		}
		if syncOn && row[6] != "yes" {
			t.Errorf("row %d: k-bound violated: %v", i, row)
		}
	}
}

func TestE2Shape(t *testing.T) {
	tab := E2()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Digest counts must grow far slower than n (logarithmically).
	first := atoiCell(t, cell(t, tab, 0, 2))
	last := atoiCell(t, cell(t, tab, 3, 2))
	if last > first*12 {
		t.Errorf("digest growth not logarithmic: %d -> %d over 1000x n", first, last)
	}
	if last == 0 {
		t.Error("VO has no digests")
	}
}

func TestE3Shape(t *testing.T) {
	tab := E3()
	if cell(t, tab, 0, 2) != "yes" {
		t.Error("untagged strawman should (wrongly) pass the Figure 3 check")
	}
	if cell(t, tab, 1, 2) != "no" {
		t.Error("tagged states must fail the Figure 3 check")
	}
	for i := 2; i < len(tab.Rows); i++ {
		if cell(t, tab, i, 3) != "yes" {
			t.Errorf("full-stack replay row %d not caught: %v", i, tab.Rows[i])
		}
	}
}

func TestE4Shape(t *testing.T) {
	tab := E4()
	for i, row := range tab.Rows {
		if row[3] != "yes" {
			t.Errorf("row %d: P3 did not detect: %v", i, row)
		}
		if row[5] != "yes" {
			t.Errorf("row %d: detection beyond two epochs: %v", i, row)
		}
	}
}

func TestE5Shape(t *testing.T) {
	tab := E5()
	for i, row := range tab.Rows {
		if row[6] != "yes" {
			t.Errorf("row %d: k-bound failed: %v", i, row)
		}
	}
}

func TestE6Shape(t *testing.T) {
	tab := E6()
	for i := 0; i < len(tab.Rows); i += 4 {
		token, p1, p2 := tab.Rows[i+1], tab.Rows[i+2], tab.Rows[i+3]
		// §2.2.3: a user's second op waits out every other user's turn.
		if n := atoiCell(t, token[1]); atoiCell(t, token[4]) != n-1 {
			t.Errorf("token passing should force n-1 turns of waiting: %v", token)
		}
		if p1[2] != "3.00" {
			t.Errorf("Protocol I should use 3 msgs/op: %v", p1)
		}
		if p2[2] != "2.00" {
			t.Errorf("Protocol II should use 2 msgs/op: %v", p2)
		}
		if p1[4] != "0" || p2[4] != "0" {
			t.Errorf("protocols must not force back-to-back waiting")
		}
		// Protocol I ships strictly more bytes per op (the extra
		// signed message).
		if atoiCell(t, p1[3]) <= atoiCell(t, p2[3]) {
			t.Errorf("P-I should cost more wire bytes than P-II: %v vs %v", p1[3], p2[3])
		}
	}
}

func TestE8Shape(t *testing.T) {
	tab := E8()
	prevSync := 0
	for i, row := range tab.Rows {
		syncBytes := atoiCell(t, row[2])
		if syncBytes <= prevSync {
			t.Errorf("row %d: sync bytes should grow with n: %v", i, row)
		}
		prevSync = syncBytes
		if row[4] != cell(t, tab, 0, 4) {
			t.Errorf("row %d: user state must be constant: %v", i, row)
		}
	}
}

func TestRenderAndRegistry(t *testing.T) {
	tab := E3()
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"E3", "Figure 3", "scheme"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E8", "E9", "E10", "E11", "E12", "E14", "E15", "E17", "E18", "E21"}
	if got := All(); !slices.Equal(got, want) {
		t.Errorf("registry ids %v, want %v", got, want)
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%s) missing", id)
		}
	}
	for _, id := range []string{"E7", "E13", "E99"} {
		if _, ok := ByID(id); ok {
			t.Errorf("ByID(%s) should be unknown", id)
		}
	}
}

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			t.Fatalf("cell %q is not an integer", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}
