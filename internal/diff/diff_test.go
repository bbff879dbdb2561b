package diff

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitJoinRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"\n",
		"a",
		"a\n",
		"a\nb",
		"a\nb\n",
		"\n\n\n",
		"line one\nline two\nno trailing",
	}
	for _, c := range cases {
		if got := JoinLines(SplitLines(c)); got != c {
			t.Errorf("round trip %q -> %q", c, got)
		}
	}
}

func TestSplitLinesShapes(t *testing.T) {
	if got := SplitLines(""); got != nil {
		t.Errorf("SplitLines(\"\") = %v", got)
	}
	if got := SplitLines("a\nb\n"); len(got) != 2 || got[0] != "a\n" || got[1] != "b\n" {
		t.Errorf("SplitLines = %q", got)
	}
	if got := SplitLines("a\nb"); len(got) != 2 || got[1] != "b" {
		t.Errorf("SplitLines without trailing newline = %q", got)
	}
}

func apply(t *testing.T, a, b string) {
	t.Helper()
	p := Strings(a, b)
	got, err := p.ApplyStrings(a)
	if err != nil {
		t.Fatalf("Apply(%q -> %q): %v", a, b, err)
	}
	if got != b {
		t.Fatalf("Apply(%q -> %q) = %q", a, b, got)
	}
	back, err := p.Invert().ApplyStrings(b)
	if err != nil {
		t.Fatalf("Invert().Apply(%q): %v", b, err)
	}
	if back != a {
		t.Fatalf("inverse patch: %q -> %q, want %q", b, back, a)
	}
}

func TestDiffApplyBasic(t *testing.T) {
	apply(t, "", "")
	apply(t, "", "a\nb\n")
	apply(t, "a\nb\n", "")
	apply(t, "a\nb\nc\n", "a\nx\nc\n")
	apply(t, "a\nb\nc\n", "a\nc\n")
	apply(t, "a\nc\n", "a\nb\nc\n")
	apply(t, "same\n", "same\n")
	apply(t, "x", "x\n") // trailing-newline change
	apply(t, "a\nb\nc\nd\ne\n", "e\nd\nc\nb\na\n")
}

func TestDiffMinimality(t *testing.T) {
	// Myers produces a minimal edit script; for these inputs the edit
	// distance is known.
	cases := []struct {
		a, b string
		want int // inserted + deleted lines
	}{
		{"a\nb\nc\n", "a\nb\nc\n", 0},
		{"a\nb\nc\n", "a\nx\nc\n", 2},
		{"a\nb\nc\n", "b\nc\n", 1},
		{"a\nb\nc\n", "a\nb\nc\nd\n", 1},
		{"a\nb\nc\nd\n", "b\nc\ne\n", 3},
	}
	for _, c := range cases {
		p := Strings(c.a, c.b)
		ins, del := p.Stats()
		if ins+del != c.want {
			t.Errorf("diff(%q,%q): %d edits, want %d\n%s", c.a, c.b, ins+del, c.want, p)
		}
	}
}

func TestIsIdentity(t *testing.T) {
	if !Strings("a\nb\n", "a\nb\n").IsIdentity() {
		t.Error("identical docs should give identity patch")
	}
	if Strings("a\n", "b\n").IsIdentity() {
		t.Error("different docs should not give identity patch")
	}
}

func TestApplyMismatch(t *testing.T) {
	p := Strings("a\nb\nc\n", "a\nx\nc\n")
	if _, err := p.ApplyStrings("a\nCHANGED\nc\n"); err == nil {
		t.Error("apply to mismatching base must fail")
	}
	if _, err := p.ApplyStrings("a\nb\nc\nextra\n"); err == nil {
		t.Error("apply with trailing unmatched lines must fail")
	}
	if _, err := p.ApplyStrings("a\nb\n"); err == nil {
		t.Error("apply to truncated base must fail")
	}
}

func TestPatchString(t *testing.T) {
	p := Strings("a\nb\n", "a\nc\n")
	s := p.String()
	for _, want := range []string{"=a", "-b", "+c"} {
		if !strings.Contains(s, want) {
			t.Errorf("patch rendering missing %q:\n%s", want, s)
		}
	}
}

func randomDoc(rng *rand.Rand, vocab int, maxLines int) string {
	n := rng.Intn(maxLines)
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "line-%d\n", rng.Intn(vocab))
	}
	return b.String()
}

func mutateDoc(rng *rand.Rand, doc string) string {
	lines := SplitLines(doc)
	for k := rng.Intn(5) + 1; k > 0; k-- {
		switch {
		case len(lines) == 0 || rng.Intn(3) == 0: // insert
			i := 0
			if len(lines) > 0 {
				i = rng.Intn(len(lines) + 1)
			}
			nl := append([]string(nil), lines[:i]...)
			nl = append(nl, fmt.Sprintf("new-%d\n", rng.Int()))
			lines = append(nl, lines[i:]...)
		case rng.Intn(2) == 0: // delete
			i := rng.Intn(len(lines))
			lines = append(lines[:i:i], lines[i+1:]...)
		default: // replace
			i := rng.Intn(len(lines))
			lines = append(append(append([]string(nil), lines[:i]...), fmt.Sprintf("rep-%d\n", rng.Int())), lines[i+1:]...)
		}
	}
	return JoinLines(lines)
}

// TestQuickDiffRoundTrip: for random document pairs, Apply(diff(a,b), a)
// == b and Invert round-trips.
func TestQuickDiffRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDoc(rng, 8, 60) // small vocabulary → many spurious matches
		var b string
		if rng.Intn(4) == 0 {
			b = randomDoc(rng, 8, 60)
		} else {
			b = mutateDoc(rng, a)
		}
		p := Lines(SplitLines(a), SplitLines(b))
		fwd, err := p.ApplyStrings(a)
		if err != nil || fwd != b {
			t.Logf("forward failed: %v", err)
			return false
		}
		back, err := p.Invert().ApplyStrings(b)
		if err != nil || back != a {
			t.Logf("reverse failed: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDiffMinimalOnPrefixSuffix: diffs between documents sharing a
// long prefix and suffix must not touch the shared region.
func TestQuickDiffMinimalOnPrefixSuffix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shared := randomDoc(rng, 1000, 40)
		mid1 := randomDoc(rng, 1000, 5)
		mid2 := randomDoc(rng, 1000, 5)
		a := shared + mid1 + shared
		b := shared + mid2 + shared
		ins, del := Strings(a, b).Stats()
		return ins <= len(SplitLines(mid2)) && del <= len(SplitLines(mid1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDiff100Lines(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var doc strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&doc, "line %d content %d\n", i, rng.Int())
	}
	a := doc.String()
	bDoc := mutateDoc(rng, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Strings(a, bDoc)
	}
}
