package cvs

import (
	"bytes"
	"errors"
	"testing"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/vdb"
)

// carrier is a ContentDoer over a local verified session and store: it
// does what the server's rider handler does (store, apply; attach
// what the checkout answer names) with the knobs a hostile
// server has.
type carrier struct {
	sess  *vdb.Session
	store *Store

	tamper bool // attach bytes that are not the content
	strip  bool // attach nothing

	calls   int
	pushed  int // blobs that rode in
	carried int // blobs that rode out
}

func (c *carrier) Do(op vdb.Op) (any, error) {
	ans, _, err := c.DoWithContent(op, nil, false)
	return ans, err
}

func (c *carrier) DoWithContent(op vdb.Op, push [][]byte, want bool) (any, [][]byte, error) {
	c.calls++
	for _, blob := range push {
		if err := c.store.Push("", 0, blob); err != nil {
			return nil, nil, err
		}
		c.pushed++
	}
	ans, err := c.sess.Do(op)
	if err != nil {
		return nil, nil, err
	}
	var riders [][]byte
	if ca, ok := ans.(CheckoutAnswer); ok && want && !c.strip {
		riders = make([][]byte, len(ca.Files))
		for i, st := range ca.Files {
			if !st.Found {
				continue
			}
			riders[i], _ = c.store.Fetch(st.Path, st.Rev, st.Hash)
			if c.tamper {
				riders[i] = append([]byte("evil"), riders[i]...)
			}
			c.carried++
		}
	}
	return ans, riders, nil
}

// countingTransfer counts what still travels on the separate content
// channel.
type countingTransfer struct {
	*Store
	pushes, fetches int
}

func (t *countingTransfer) Push(path string, rev uint64, content []byte) error {
	t.pushes++
	return t.Store.Push(path, rev, content)
}

func (t *countingTransfer) Fetch(path string, rev uint64, hash digest.Digest) ([]byte, error) {
	t.fetches++
	return t.Store.Fetch(path, rev, hash)
}

func newCarrierClient(t *testing.T) (*Client, *carrier, *countingTransfer) {
	t.Helper()
	store := NewStore()
	c := &carrier{sess: vdb.NewSession(vdb.New(0)), store: store}
	tr := &countingTransfer{Store: store}
	return NewClient(c, tr, "alice", fixedClock()), c, tr
}

// TestRiderOneRoundTrip: with a Doer that carries content, a commit
// and a checkout are one call each and nothing moves on the content
// channel — one file or three.
func TestRiderOneRoundTrip(t *testing.T) {
	cl, c, tr := newCarrierClient(t)
	files := map[string][]byte{"a": []byte("alpha\n"), "b": []byte("bravo\n"), "c": {}}
	if _, err := cl.Commit(files, "import", nil); err != nil {
		t.Fatal(err)
	}
	if c.calls != 1 || c.pushed != 3 || tr.pushes != 0 {
		t.Fatalf("commit: %d calls, %d blobs carried, %d pushes; want 1, 3, 0", c.calls, c.pushed, tr.pushes)
	}
	got, err := cl.Checkout("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if string(got["a"]) != "alpha\n" || string(got["b"]) != "bravo\n" {
		t.Fatalf("checkout: %q", got)
	}
	if c.calls != 2 || tr.fetches != 0 {
		t.Fatalf("checkout: %d calls in all, %d fetches; want 2, 0", c.calls, tr.fetches)
	}
	// An empty file's rider is indistinguishable from none: it costs the
	// fetch and verifies.
	if got, err := cl.Checkout("c"); err != nil || len(got["c"]) != 0 || tr.fetches != 1 {
		t.Fatalf("empty file: %q %v, %d fetches", got["c"], err, tr.fetches)
	}
	// Status asks for no content and carries none.
	before := c.carried
	if _, err := cl.Status("a"); err != nil || c.carried != before {
		t.Fatalf("Status carried content: %v, %d -> %d", err, before, c.carried)
	}
}

// TestRiderTamperConvicted: a rider is bytes the server chose. Wrong
// ones are ErrContentTampered — there is no falling back to a fetch
// that might succeed.
func TestRiderTamperConvicted(t *testing.T) {
	cl, c, tr := newCarrierClient(t)
	if _, err := cl.Commit(map[string][]byte{"f": []byte("genuine\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	c.tamper = true
	got, err := cl.Checkout("f")
	if !errors.Is(err, ErrContentTampered) || got != nil {
		t.Fatalf("tampered rider: %q, %v; want ErrContentTampered", got, err)
	}
	if tr.fetches != 0 {
		t.Fatalf("a wrong rider was followed by %d fetches", tr.fetches)
	}
}

// TestRiderAbsentCostsAFetch: a server that attaches nothing costs the
// second round trip and nothing else.
func TestRiderAbsentCostsAFetch(t *testing.T) {
	cl, c, tr := newCarrierClient(t)
	if _, err := cl.Commit(map[string][]byte{"f": []byte("genuine\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	c.strip = true
	got, err := cl.Checkout("f")
	if err != nil || string(got["f"]) != "genuine\n" {
		t.Fatalf("checkout without riders: %q %v", got["f"], err)
	}
	if tr.fetches != 1 {
		t.Fatalf("%d fetches, want 1", tr.fetches)
	}
}

// TestRiderOverflowFallsBack: a commit above MaxRiderBytes carries
// nothing and pushes each file ahead of the operation; everything
// still verifies.
func TestRiderOverflowFallsBack(t *testing.T) {
	cl, c, tr := newCarrierClient(t)
	big := bytes.Repeat([]byte("0123456789abcdef"), MaxRiderBytes/16/2+1) // just over half the cap
	files := map[string][]byte{"x": big, "y": append([]byte("y"), big...), "z": []byte("small\n")}
	if _, err := cl.Commit(files, "big", nil); err != nil {
		t.Fatal(err)
	}
	if c.pushed != 0 || tr.pushes != 3 {
		t.Fatalf("overflowing commit carried %d blobs and pushed %d; want 0 and 3", c.pushed, tr.pushes)
	}
	got, err := cl.Checkout("x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range files {
		if !bytes.Equal(got[p], want) {
			t.Fatalf("%s: %d bytes back, want %d", p, len(got[p]), len(want))
		}
	}
}

// TestVisitAnswers: the allocation-free walk sees what the decoder
// sees, stops at the first malformed byte, and allocates nothing.
func TestVisitAnswers(t *testing.T) {
	commit := CommitAnswer{Results: []CommitResult{{Path: "a", Rev: 7}, {Path: "dir/b", Conflict: true}, {Path: "c", Rev: 300}}}
	h := rcs.HashContent([]byte("x"))
	checkout := CheckoutAnswer{Files: []FileStatus{{Path: "a", Found: true, Rev: 2, Hash: h}, {Path: "gone"}, {Path: "d", Found: true, Rev: 9, Hash: h, Dead: true}}}
	enc := checkout.AppendAnswer(nil)
	var seen []FileStatus
	VisitCheckoutAnswer(enc, func(i int, st FileStatus) { seen = append(seen, st) })
	if len(seen) != 3 || !seen[0].Found || seen[0].Rev != 2 || seen[0].Hash != h || seen[1].Found || !seen[2].Dead {
		t.Fatalf("checkout walk saw %+v", seen)
	}

	// The wrong answer type, a truncated one and a lying count visit
	// nothing past the damage.
	n := 0
	count := func(int, FileStatus) { n++ }
	VisitCheckoutAnswer(commit.AppendAnswer(nil), count)
	VisitCheckoutAnswer(enc[:len(enc)-1], count)
	VisitCheckoutAnswer([]byte{tagCheckout, 0xff, 0xff, 0x03}, count)
	VisitCheckoutAnswer(nil, count)
	if n != 2 {
		t.Fatalf("damaged answers: %d files visited, want the 2 intact ones of the truncated answer", n)
	}

	if got := testing.AllocsPerRun(100, func() {
		VisitCheckoutAnswer(enc, func(int, FileStatus) {})
	}); got != 0 {
		t.Fatalf("the answer walk allocates %.0f times", got)
	}
}
