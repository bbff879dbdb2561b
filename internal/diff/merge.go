package diff

import (
	"strings"
)

// Merge performs a three-way line merge (diff3): base is the common
// ancestor, ours and theirs the two derived versions. Changes that
// touch disjoint regions of base combine cleanly; overlapping,
// non-identical changes produce conflict regions.
//
// This is the algorithm under the CVS `update` workflow: a committer
// whose up-to-date check failed merges the repository head (theirs)
// into its edit (ours) relative to the revision it started from
// (base).
type MergeResult struct {
	// Lines is the merged document. Conflicted regions appear between
	// marker lines (<<<<<<<, =======, >>>>>>>).
	Lines []string
	// Conflicts is the number of conflict regions.
	Conflicts int
}

// Merged returns the merged document as a string.
func (m *MergeResult) Merged() string { return JoinLines(m.Lines) }

// Conflict markers, one per line (newline included when rendered).
const (
	MarkerOurs   = "<<<<<<< ours"
	MarkerSep    = "======="
	MarkerTheirs = ">>>>>>> theirs"
)

// hunk is one contiguous change against the base: base lines
// [baseStart, baseEnd) are replaced by repl.
type hunk struct {
	baseStart, baseEnd int
	repl               []string
}

// hunks converts a base→derived patch into sorted hunks.
func hunks(p *Patch) []hunk {
	var out []hunk
	base := 0
	var cur *hunk
	flush := func() {
		if cur != nil {
			out = append(out, *cur)
			cur = nil
		}
	}
	for _, e := range p.Edits {
		switch e.Op {
		case Equal:
			flush()
			base += len(e.Lines)
		case Delete:
			if cur == nil {
				cur = &hunk{baseStart: base, baseEnd: base}
			}
			cur.baseEnd += len(e.Lines)
			base += len(e.Lines)
		case Insert:
			if cur == nil {
				cur = &hunk{baseStart: base, baseEnd: base}
			}
			cur.repl = append(cur.repl, e.Lines...)
		}
	}
	flush()
	return out
}

// regionLines materializes one side's content for base region [s, e):
// replacement lines of hunks inside the region plus untouched base
// lines between them. Hunks are guaranteed to lie within [s, e).
func regionLines(base []string, side []hunk, s, e int) []string {
	var out []string
	pos := s
	for _, h := range side {
		if h.baseEnd < s || h.baseStart > e {
			continue
		}
		out = append(out, base[pos:h.baseStart]...)
		out = append(out, h.repl...)
		pos = h.baseEnd
	}
	out = append(out, base[pos:e]...)
	return out
}

// MergeLines merges at the line level.
func MergeLines(base, ours, theirs []string) *MergeResult {
	ha := hunks(Lines(base, ours))
	hb := hunks(Lines(base, theirs))
	res := &MergeResult{}

	pos := 0 // current base line
	ia, ib := 0, 0
	for ia < len(ha) || ib < len(hb) {
		// Pick the next hunk start.
		nextA, nextB := 1<<62, 1<<62
		if ia < len(ha) {
			nextA = ha[ia].baseStart
		}
		if ib < len(hb) {
			nextB = hb[ib].baseStart
		}
		start := min(nextA, nextB)

		// Copy the stable prefix.
		res.Lines = append(res.Lines, base[pos:start]...)
		pos = start

		// Grow a merge region: union of all overlapping hunk chains
		// from both sides. Pure insertions (empty base range) at the
		// same point also group together.
		end := start
		var regA, regB []hunk
		for {
			grew := false
			for ia < len(ha) && overlaps(ha[ia], start, end) {
				regA = append(regA, ha[ia])
				end = max(end, ha[ia].baseEnd)
				ia++
				grew = true
			}
			for ib < len(hb) && overlaps(hb[ib], start, end) {
				regB = append(regB, hb[ib])
				end = max(end, hb[ib].baseEnd)
				ib++
				grew = true
			}
			if !grew {
				break
			}
		}

		oursLines := regionLines(base, regA, start, end)
		theirsLines := regionLines(base, regB, start, end)
		switch {
		case len(regB) == 0:
			res.Lines = append(res.Lines, oursLines...)
		case len(regA) == 0:
			res.Lines = append(res.Lines, theirsLines...)
		case sameLines(oursLines, theirsLines):
			res.Lines = append(res.Lines, oursLines...)
		default:
			res.Conflicts++
			res.Lines = append(res.Lines, MarkerOurs+"\n")
			res.Lines = append(res.Lines, oursLines...)
			res.Lines = append(res.Lines, MarkerSep+"\n")
			res.Lines = append(res.Lines, theirsLines...)
			res.Lines = append(res.Lines, MarkerTheirs+"\n")
		}
		pos = end
	}
	res.Lines = append(res.Lines, base[pos:]...)
	return res
}

// overlaps reports whether h intersects (or abuts, for insertions at
// the region edge) the region [s, e).
func overlaps(h hunk, s, e int) bool {
	if h.baseStart == h.baseEnd {
		// Pure insertion: groups with a region it touches.
		return h.baseStart >= s && h.baseStart <= e
	}
	return h.baseStart < e && h.baseEnd > s || (h.baseStart == s && e == s)
}

// Merge3 merges whole documents.
func Merge3(base, ours, theirs string) *MergeResult {
	return MergeLines(SplitLines(base), SplitLines(ours), SplitLines(theirs))
}

func sameLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HasConflictMarkers reports whether a document still contains merge
// conflict markers (used to refuse committing unresolved merges).
func HasConflictMarkers(doc string) bool {
	for _, l := range SplitLines(doc) {
		t := strings.TrimSuffix(l, "\n")
		if t == MarkerOurs || t == MarkerSep || t == MarkerTheirs {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
