package cvs

import (
	"errors"
	"testing"
	"time"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/vdb"
)

func fixedClock() func() time.Time {
	t := time.Date(2006, 4, 3, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return t }
}

func newTestClient(t *testing.T, author string) (*Client, *vdb.DB, *Store) {
	t.Helper()
	db := vdb.New(0)
	store := NewStore()
	c := NewClient(vdb.NewSession(db), store, author, fixedClock())
	return c, db, store
}

// twoClients returns two clients sharing one server (db + store) and
// one verified session. A vdb.Session is single-user — it cannot track
// roots advanced by another session, which is exactly the gap the
// paper's protocols close (tested in internal/core/...). Sharing the
// session here isolates the CVS-semantics tests from that concern.
func twoClients(t *testing.T) (*Client, *Client) {
	t.Helper()
	db := vdb.New(0)
	store := NewStore()
	sess := vdb.NewSession(db)
	a := NewClient(sess, store, "alice", fixedClock())
	b := NewClient(sess, store, "bob", fixedClock())
	return a, b
}

func TestCommitCheckoutRoundTrip(t *testing.T) {
	c, _, _ := newTestClient(t, "alice")
	res, err := c.Commit(map[string][]byte{
		"src/main.go": []byte("package main\n"),
		"README":      []byte("hello\n"),
	}, "initial import", nil)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if len(res) != 2 {
		t.Fatalf("results: %+v", res)
	}
	for _, r := range res {
		if r.Rev != 1 || r.Conflict {
			t.Fatalf("bad result: %+v", r)
		}
	}
	got, err := c.Checkout("src/main.go", "README")
	if err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if string(got["src/main.go"]) != "package main\n" || string(got["README"]) != "hello\n" {
		t.Fatalf("checkout contents: %q", got)
	}
}

func TestRevisionHistory(t *testing.T) {
	c, _, _ := newTestClient(t, "alice")
	for i, content := range []string{"v1\n", "v2\n", "v3\n"} {
		if _, err := c.Commit(map[string][]byte{"f": []byte(content)}, "rev", nil); err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	for rev, want := range map[uint64]string{1: "v1\n", 2: "v2\n", 3: "v3\n"} {
		got, err := c.CheckoutRev(rev, "f")
		if err != nil {
			t.Fatalf("CheckoutRev(%d): %v", rev, err)
		}
		if string(got["f"]) != want {
			t.Fatalf("rev %d = %q, want %q", rev, got["f"], want)
		}
	}
	log, err := c.Log("f")
	if err != nil {
		t.Fatalf("Log: %v", err)
	}
	if len(log) != 3 || log[0].Rev != 3 || log[2].Rev != 1 {
		t.Fatalf("log: %+v", log)
	}
	if log[0].Author != "alice" || log[0].Log != "rev" {
		t.Fatalf("log metadata: %+v", log[0])
	}
}

func TestMultiUserSharedRepo(t *testing.T) {
	a, b := twoClients(t)
	if _, err := a.Commit(map[string][]byte{"Common.h": []byte("#define X 1\n")}, "add header", nil); err != nil {
		t.Fatal(err)
	}
	got, err := b.Checkout("Common.h")
	if err != nil {
		t.Fatalf("bob checkout: %v", err)
	}
	if string(got["Common.h"]) != "#define X 1\n" {
		t.Fatalf("bob sees %q", got["Common.h"])
	}
	if _, err := b.Commit(map[string][]byte{"Common.h": []byte("#define X 2\n")}, "bump", nil); err != nil {
		t.Fatal(err)
	}
	got, err = a.Checkout("Common.h")
	if err != nil {
		t.Fatalf("alice checkout: %v", err)
	}
	if string(got["Common.h"]) != "#define X 2\n" {
		t.Fatalf("alice sees %q", got["Common.h"])
	}
}

func TestUpToDateCheck(t *testing.T) {
	a, b := twoClients(t)
	if _, err := a.Commit(map[string][]byte{"f": []byte("base\n")}, "r1", nil); err != nil {
		t.Fatal(err)
	}
	// Both base their edits on rev 1; alice lands first.
	if _, err := a.Commit(map[string][]byte{"f": []byte("alice\n")}, "r2", map[string]uint64{"f": 1}); err != nil {
		t.Fatal(err)
	}
	res, err := b.Commit(map[string][]byte{"f": []byte("bob\n")}, "r2b", map[string]uint64{"f": 1})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v (res %+v)", err, res)
	}
	if !res[0].Conflict {
		t.Fatalf("result should flag conflict: %+v", res)
	}
	// The repository still holds alice's revision.
	got, err := b.Checkout("f")
	if err != nil || string(got["f"]) != "alice\n" {
		t.Fatalf("head after conflict: %q %v", got["f"], err)
	}
}

func TestPartialConflictCommitsOtherFiles(t *testing.T) {
	a, b := twoClients(t)
	if _, err := a.Commit(map[string][]byte{"x": []byte("1\n"), "y": []byte("1\n")}, "base", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(map[string][]byte{"x": []byte("2\n")}, "bump x", nil); err != nil {
		t.Fatal(err)
	}
	// Bob edits both based on rev 1: x conflicts, y commits.
	res, err := b.Commit(map[string][]byte{"x": []byte("bob\n"), "y": []byte("bob\n")},
		"both", map[string]uint64{"x": 1, "y": 1})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	byPath := map[string]CommitResult{}
	for _, r := range res {
		byPath[r.Path] = r
	}
	if !byPath["x"].Conflict || byPath["y"].Conflict {
		t.Fatalf("conflict flags: %+v", res)
	}
	got, err := a.Checkout("y")
	if err != nil || string(got["y"]) != "bob\n" {
		t.Fatalf("y after partial commit: %q %v", got["y"], err)
	}
}

func TestStatusAndList(t *testing.T) {
	c, _, _ := newTestClient(t, "alice")
	if _, err := c.Commit(map[string][]byte{"a": []byte("1\n"), "b": []byte("2\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status("a", "nope")
	if err != nil {
		t.Fatal(err)
	}
	if !st[0].Found || st[0].Rev != 1 {
		t.Fatalf("status a: %+v", st[0])
	}
	if st[1].Found {
		t.Fatalf("status nope: %+v", st[1])
	}
	files, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Path != "a" || files[1].Path != "b" {
		t.Fatalf("list: %+v", files)
	}
}

func TestListPrefix(t *testing.T) {
	c, _, _ := newTestClient(t, "alice")
	if _, err := c.Commit(map[string][]byte{
		"src/a.go":  []byte("a\n"),
		"src/b.go":  []byte("b\n"),
		"srcx.go":   []byte("x\n"),
		"docs/r.md": []byte("r\n"),
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	files, err := c.ListPrefix("src/")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Path != "src/a.go" || files[1].Path != "src/b.go" {
		t.Fatalf("prefix list: %+v", files)
	}
	// Prefix boundaries are exact: "src" (no slash) also matches
	// srcx.go.
	files, err = c.ListPrefix("src")
	if err != nil || len(files) != 3 {
		t.Fatalf("bare prefix: %+v %v", files, err)
	}
	// Unmatched prefix is empty, not an error.
	files, err = c.ListPrefix("nope/")
	if err != nil || len(files) != 0 {
		t.Fatalf("unmatched prefix: %+v %v", files, err)
	}
	// 0xFF edge: prefix whose upper bound rolls over.
	if _, err := c.Commit(map[string][]byte{"\xff\xff/end": []byte("e\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	files, err = c.ListPrefix("\xff\xff")
	if err != nil || len(files) != 1 || files[0].Path != "\xff\xff/end" {
		t.Fatalf("0xFF prefix: %+v %v", files, err)
	}
}

func TestTags(t *testing.T) {
	c, _, _ := newTestClient(t, "alice")
	if _, err := c.Commit(map[string][]byte{"f": []byte("v1\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tag("RELEASE_1", "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(map[string][]byte{"f": []byte("v2\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.CheckoutTag("RELEASE_1", "f")
	if err != nil {
		t.Fatalf("CheckoutTag: %v", err)
	}
	if string(got["f"]) != "v1\n" {
		t.Fatalf("tagged checkout = %q", got["f"])
	}
	head, err := c.Checkout("f")
	if err != nil || string(head["f"]) != "v2\n" {
		t.Fatalf("head = %q %v", head["f"], err)
	}
}

func TestCheckoutMissingFile(t *testing.T) {
	c, _, _ := newTestClient(t, "alice")
	if _, err := c.Checkout("ghost"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("want ErrNoFile, got %v", err)
	}
}

func TestContentTamperDetected(t *testing.T) {
	// The store serves different bytes than the authenticated hash:
	// the client must refuse them.
	db := vdb.New(0)
	store := NewStore()
	evil := &tamperingStore{inner: store}
	c := NewClient(vdb.NewSession(db), evil, "alice", fixedClock())
	if _, err := c.Commit(map[string][]byte{"f": []byte("true\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkout("f"); !errors.Is(err, ErrContentTampered) {
		t.Fatalf("want ErrContentTampered, got %v", err)
	}
}

type tamperingStore struct{ inner *Store }

func (s *tamperingStore) Push(path string, rev uint64, content []byte) error {
	return s.inner.Push(path, rev, content)
}

func (s *tamperingStore) Fetch(path string, rev uint64, hash digest.Digest) ([]byte, error) {
	b, err := s.inner.Fetch(path, rev, hash)
	if err != nil {
		return nil, err
	}
	b[0] ^= 0xFF
	return b, nil
}

// TestStorePushOrdering: the order pushes arrive in decides nothing.
// Revisions 3, 1, 2 of one path are each fetchable by hash the moment
// their push returns, whatever came before.
func TestStorePushOrdering(t *testing.T) {
	s := NewStore()
	for _, rev := range []uint64{3, 1, 2} {
		content := []byte{'v', byte('0' + rev)}
		if err := s.Push("f", rev, content); err != nil {
			t.Fatal(err)
		}
		got, err := s.Fetch("f", rev, rcs.HashContent(content))
		if err != nil || string(got) != string(content) {
			t.Fatalf("fetch of f@%d right after its push: %q %v", rev, got, err)
		}
	}
}

// racingDoer is a plain Doer — no content rides with it — that runs
// between, when set, after a commit has applied and before its answer
// returns: the window a concurrent reader sees.
type racingDoer struct {
	sess    *vdb.Session
	between func()
}

func (d *racingDoer) Do(op vdb.Op) (any, error) {
	ans, err := d.sess.Do(op)
	if _, ok := op.(*CommitOp); ok && err == nil && d.between != nil {
		d.between()
	}
	return ans, err
}

// TestCommitStoresContentBeforeNamingIt: over a plain Doer the content
// is pushed before the commit is issued, so a reader that checks the
// path out the instant the commit applies gets the new bytes.
func TestCommitStoresContentBeforeNamingIt(t *testing.T) {
	store := NewStore()
	sess := vdb.NewSession(vdb.New(0))
	reader := NewClient(sess, store, "bob", fixedClock())
	var seen map[string][]byte
	var seenErr error
	racing := &racingDoer{sess: sess, between: func() { seen, seenErr = reader.Checkout("f") }}
	writer := NewClient(racing, store, "alice", fixedClock())
	if _, err := writer.Commit(map[string][]byte{"f": []byte("new\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	if seenErr != nil || string(seen["f"]) != "new\n" {
		t.Fatalf("checkout between the commit applying and returning: %q %v", seen["f"], seenErr)
	}
}

// failingTransfer refuses pushes with err once it is set.
type failingTransfer struct {
	*Store
	err error
}

func (f *failingTransfer) Push(path string, rev uint64, content []byte) error {
	if f.err != nil {
		return f.err
	}
	return f.Store.Push(path, rev, content)
}

// TestFailedPushIssuesNoCommit: a commit whose content cannot be stored
// is never issued — the head stays where it was and stays checkable.
func TestFailedPushIssuesNoCommit(t *testing.T) {
	tr := &failingTransfer{Store: NewStore()}
	c := NewClient(vdb.NewSession(vdb.New(0)), tr, "alice", fixedClock())
	if _, err := c.Commit(map[string][]byte{"f": []byte("v1\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	tr.err = errors.New("injected: store unreachable")
	if _, err := c.Commit(map[string][]byte{"f": []byte("v2\n")}, "", nil); !errors.Is(err, tr.err) {
		t.Fatalf("commit over a failing push: %v, want the injected error", err)
	}
	st, err := c.Status("f")
	if err != nil || st[0].Rev != 1 {
		t.Fatalf("head after the failed commit: %+v %v, want revision 1", st, err)
	}
	if got, err := c.Checkout("f"); err != nil || string(got["f"]) != "v1\n" {
		t.Fatalf("checkout after the failed commit: %q %v", got["f"], err)
	}
}

func TestRecordEncodings(t *testing.T) {
	h := HeadRecord{Rev: 42, Hash: rcs.HashContent([]byte("x"))}
	dec, err := DecodeHead(EncodeHead(h))
	if err != nil || dec != h {
		t.Fatalf("head round trip: %+v %v", dec, err)
	}
	if _, err := DecodeHead([]byte("short")); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("short head: %v", err)
	}
	r := RevisionRecord{Rev: 7, Hash: rcs.HashContent([]byte("y")), Author: "alice", TimeUnix: 1144065600, Log: "fix\nnewline"}
	decR, err := DecodeRevision(EncodeRevision(r))
	if err != nil || decR != r {
		t.Fatalf("revision round trip: %+v %v", decR, err)
	}
	for _, bad := range [][]byte{nil, []byte("x"), EncodeRevision(r)[:20], append(EncodeRevision(r), 'x')} {
		if _, err := DecodeRevision(bad); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("bad revision %q: %v", bad, err)
		}
	}
}

func TestValidatePath(t *testing.T) {
	if err := ValidatePath("src/a.go"); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePath(""); !errors.Is(err, ErrBadPath) {
		t.Fatal("empty path must be rejected")
	}
	if err := ValidatePath("a\x00b"); !errors.Is(err, ErrBadPath) {
		t.Fatal("NUL path must be rejected")
	}
}

func TestBadOps(t *testing.T) {
	c, _, _ := newTestClient(t, "alice")
	if _, err := c.Commit(nil, "", nil); !errors.Is(err, vdb.ErrBadOp) {
		t.Fatalf("empty commit: %v", err)
	}
	db := vdb.New(0)
	for name, op := range map[string]vdb.Op{
		"no paths checkout": &CheckoutOp{},
		"rev+tag":           &CheckoutOp{Paths: []string{"f"}, Rev: 1, Tag: "T"},
		"empty tag":         &TagOp{Paths: []string{"f"}},
		"dup commit paths": &CommitOp{Files: []CommitFile{
			{Path: "f", Hash: rcs.HashContent(nil)},
			{Path: "f", Hash: rcs.HashContent(nil)},
		}},
		"zero hash commit": &CommitOp{Files: []CommitFile{{Path: "f"}}},
	} {
		if _, _, err := db.Apply(op); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
