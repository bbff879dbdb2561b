// Package diff implements a line-oriented diff (Myers' O(ND) greedy
// algorithm), a patch representation with forward and reverse
// application, a three-way merge and unified-format output. It runs on
// the client side only — `tcvs diff`, update's merge and annotate work
// on revisions the client has already fetched and verified; the server
// stores every revision in full (internal/rcs) and never diffs.
package diff

import (
	"errors"
	"fmt"
	"strings"
)

// Op is the kind of a hunk operation.
type Op byte

const (
	// Equal lines are present in both versions.
	Equal Op = '='
	// Delete lines are present only in the old version.
	Delete Op = '-'
	// Insert lines are present only in the new version.
	Insert Op = '+'
)

// Edit is one run of consecutive lines sharing an operation.
type Edit struct {
	Op    Op
	Lines []string
}

// Patch is an ordered list of edits transforming an old document into a
// new one.
type Patch struct {
	Edits []Edit
}

// ErrPatchMismatch is returned when a patch's context does not match
// the document it is applied to.
var ErrPatchMismatch = errors.New("diff: patch does not match document")

// SplitLines splits a document into lines, keeping a trailing final
// line even when the document does not end in a newline. The empty
// document has zero lines.
func SplitLines(s string) []string {
	if s == "" {
		return nil
	}
	lines := strings.Split(s, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
		for i := range lines {
			lines[i] += "\n"
		}
		return lines
	}
	for i := 0; i < len(lines)-1; i++ {
		lines[i] += "\n"
	}
	return lines
}

// JoinLines is the inverse of SplitLines.
func JoinLines(lines []string) string {
	return strings.Join(lines, "")
}

// Lines computes a minimal line diff from a to b using Myers'
// algorithm.
func Lines(a, b []string) *Patch {
	n, m := len(a), len(b)
	max := n + m
	if max == 0 {
		return &Patch{}
	}
	// v[k] = furthest x on diagonal k; offset by max.
	v := make([]int, 2*max+1)
	// trace[d] is v as round d found it, kept for backtracking — only
	// the diagonals -d..d a round can reach, so trace[d][k+d] is v[k].
	var trace [][]int

	var dFound = -1
outer:
	for d := 0; d <= max; d++ {
		trace = append(trace, append([]int(nil), v[max-d:max+d+1]...))
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[max+k-1] < v[max+k+1]) {
				x = v[max+k+1] // move down (insert from b)
			} else {
				x = v[max+k-1] + 1 // move right (delete from a)
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[max+k] = x
			if x >= n && y >= m {
				dFound = d
				break outer
			}
		}
	}
	if dFound < 0 {
		// At d = n+m the trivial all-delete/all-insert path always
		// reaches (n, m), so the search cannot fail for any input.
		panic("diff: Myers did not terminate")
	}

	// Backtrack from (n, m) to (0, 0).
	type step struct {
		op    Op
		aLine int // index into a for Equal/Delete
		bLine int // index into b for Insert
	}
	var steps []step
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vPrev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[d+k-1] < vPrev[d+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[d+prevK]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			steps = append(steps, step{Equal, x, y})
		}
		if prevK == k+1 {
			y--
			steps = append(steps, step{Insert, -1, y})
		} else {
			x--
			steps = append(steps, step{Delete, x, -1})
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		steps = append(steps, step{Equal, x, y})
	}

	// steps is reversed; fold into runs.
	p := &Patch{}
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		var line string
		switch s.op {
		case Insert:
			line = b[s.bLine]
		default:
			line = a[s.aLine]
		}
		if n := len(p.Edits); n > 0 && p.Edits[n-1].Op == s.op {
			p.Edits[n-1].Lines = append(p.Edits[n-1].Lines, line)
		} else {
			p.Edits = append(p.Edits, Edit{Op: s.op, Lines: []string{line}})
		}
	}
	return p
}

// Strings diffs two documents by line.
func Strings(a, b string) *Patch {
	return Lines(SplitLines(a), SplitLines(b))
}

// Apply transforms old (the "a" side) into the "b" side. It verifies
// Equal and Delete context against old and fails with ErrPatchMismatch
// on divergence.
func (p *Patch) Apply(old []string) ([]string, error) {
	var out []string
	i := 0
	for _, e := range p.Edits {
		switch e.Op {
		case Equal, Delete:
			for _, want := range e.Lines {
				if i >= len(old) || old[i] != want {
					return nil, fmt.Errorf("%w: at line %d", ErrPatchMismatch, i+1)
				}
				if e.Op == Equal {
					out = append(out, old[i])
				}
				i++
			}
		case Insert:
			out = append(out, e.Lines...)
		default:
			return nil, fmt.Errorf("diff: unknown op %q", e.Op)
		}
	}
	if i != len(old) {
		return nil, fmt.Errorf("%w: %d trailing unmatched lines", ErrPatchMismatch, len(old)-i)
	}
	return out, nil
}

// Invert returns the reverse patch: applying the result to the "b" side
// yields the "a" side.
func (p *Patch) Invert() *Patch {
	inv := &Patch{Edits: make([]Edit, len(p.Edits))}
	for i, e := range p.Edits {
		ne := Edit{Op: e.Op, Lines: e.Lines}
		switch e.Op {
		case Delete:
			ne.Op = Insert
		case Insert:
			ne.Op = Delete
		}
		inv.Edits[i] = ne
	}
	return inv
}

// ApplyStrings is Apply for whole documents.
func (p *Patch) ApplyStrings(old string) (string, error) {
	lines, err := p.Apply(SplitLines(old))
	if err != nil {
		return "", err
	}
	return JoinLines(lines), nil
}

// Stats returns the number of inserted and deleted lines.
func (p *Patch) Stats() (inserted, deleted int) {
	for _, e := range p.Edits {
		switch e.Op {
		case Insert:
			inserted += len(e.Lines)
		case Delete:
			deleted += len(e.Lines)
		}
	}
	return inserted, deleted
}

// IsIdentity reports whether the patch makes no changes.
func (p *Patch) IsIdentity() bool {
	ins, del := p.Stats()
	return ins == 0 && del == 0
}

// String renders the patch in a unified-diff-like format (without
// hunk headers), for logs and the CLI.
func (p *Patch) String() string {
	var b strings.Builder
	for _, e := range p.Edits {
		for _, l := range e.Lines {
			b.WriteByte(byte(e.Op))
			b.WriteString(strings.TrimSuffix(l, "\n"))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
