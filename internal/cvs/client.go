package cvs

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"trustedcvs/internal/diff"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/vdb"
)

// A Doer executes one authenticated operation against the untrusted
// server and fully verifies it before returning the (decoded) answer.
// The protocol user state machines (internal/core/proto*) bound to a
// transport implement Doer.
type Doer interface {
	Do(op vdb.Op) (any, error)
}

// A ContentTransfer moves revision content to and from the server's
// unauthenticated content store, a map from content hash to bytes.
// What Fetch returns is unverified, as riders are: the Client checks
// it against the authenticated hash, so this channel needs no
// protection of its own. Fetch carries that hash — it is the key; path
// and rev, on both calls, are labels for error messages and choose
// nothing. Push must be complete before the commit naming the content
// is issued.
type ContentTransfer interface {
	Push(path string, rev uint64, content []byte) error
	Fetch(path string, rev uint64, hash digest.Digest) ([]byte, error)
}

// A ContentDoer is a Doer that can move an operation's content in the
// same round trip as the operation. push, when non-nil, is the content
// of a CommitOp's files in Files order, which the server stores before
// it applies the commit; want asks it to attach the content of the
// files a checkout answer names. riders[i] is what the server attached
// for the answer's i-th file (empty: nothing — fetch it). Riders are
// the server's word alone: the caller checks each against the hash in
// the verified answer, exactly as it checks fetched content. A Client
// whose Doer offers this uses it, so a commit or a checkout is one
// round trip; ContentTransfer remains the path for everything riders
// do not cover.
type ContentDoer interface {
	DoWithContent(op vdb.Op, push [][]byte, want bool) (ans any, riders [][]byte, err error)
}

// MaxRiderBytes caps the content one operation carries in either
// direction, well under the frame limit (wire.MaxMessage). A commit
// above it uploads through ContentTransfer.Push before the operation,
// and a checkout answer's files beyond it are left for Fetch.
const MaxRiderBytes = 4 << 20

// ErrContentTampered is returned when fetched content does not hash to
// the authenticated revision hash — a server integrity violation.
var ErrContentTampered = errors.New("cvs: fetched content does not match authenticated hash")

// ErrNoFile is returned when a checked-out path does not exist in the
// repository.
var ErrNoFile = errors.New("cvs: no such file")

// ErrConflict is returned when a commit's up-to-date check failed for
// at least one file.
var ErrConflict = errors.New("cvs: up-to-date check failed")

// Client is a verified CVS client: every repository operation goes
// through a Doer (which proves server honesty per operation) and every
// piece of content is re-hashed.
type Client struct {
	doer    Doer
	carrier ContentDoer // doer, when it can carry content; else nil
	content ContentTransfer
	author  string
	now     func() time.Time
}

// NewClient builds a client for the given user name. now may be nil
// (wall clock); simulations pass a deterministic clock.
func NewClient(doer Doer, content ContentTransfer, author string, now func() time.Time) *Client {
	if now == nil {
		now = time.Now
	}
	carrier, _ := doer.(ContentDoer)
	return &Client{doer: doer, carrier: carrier, content: content, author: author, now: now}
}

// Commit uploads the given files' content (path -> new content) and
// commits them in one atomic operation. baseRevs optionally carries the
// revision each edit was based on (CVS up-to-date check); paths absent
// from baseRevs are committed unconditionally.
func (c *Client) Commit(files map[string][]byte, logMsg string, baseRevs map[string]uint64) ([]CommitResult, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("%w: commit with no files", vdb.ErrBadOp)
	}
	op := &CommitOp{Files: make([]CommitFile, 0, len(files)), Author: c.author, Log: logMsg, TimeUnix: c.now().Unix()}
	total := 0
	for p, content := range files {
		op.Files = append(op.Files, CommitFile{Path: p, Hash: rcs.HashContent(content), BaseRev: baseRevs[p]})
		total += len(content)
	}
	slices.SortFunc(op.Files, func(a, b CommitFile) int { return strings.Compare(a.Path, b.Path) })

	// Content is stored before the commit that names it: it rides with
	// the operation when the Doer can carry it and it fits, and is pushed
	// ahead of the operation otherwise. The revision is not assigned
	// yet, so the pushes are labelled 0.
	var push [][]byte
	if c.carrier != nil && total <= MaxRiderBytes {
		push = make([][]byte, len(op.Files))
		for i, f := range op.Files {
			push[i] = files[f.Path]
		}
	} else {
		for _, f := range op.Files {
			if err := c.content.Push(f.Path, 0, files[f.Path]); err != nil {
				return nil, fmt.Errorf("cvs: push content for %s: %w", f.Path, err)
			}
		}
	}
	ans, _, err := c.do(op, push, false)
	if err != nil {
		return nil, err
	}
	ca, ok := ans.(CommitAnswer)
	if !ok {
		return nil, fmt.Errorf("cvs: commit returned %T", ans)
	}
	if len(ca.Results) != len(op.Files) {
		return nil, fmt.Errorf("cvs: commit answer has %d results for %d files", len(ca.Results), len(op.Files))
	}
	for _, r := range ca.Results {
		if r.Conflict {
			return ca.Results, ErrConflict
		}
	}
	return ca.Results, nil
}

// Checkout fetches the head content of the given paths, verified
// end to end.
func (c *Client) Checkout(paths ...string) (map[string][]byte, error) {
	files, err := c.checkout(&CheckoutOp{Paths: paths})
	return files.Map(), err
}

// CheckoutRev fetches the given revision of the given paths.
func (c *Client) CheckoutRev(rev uint64, paths ...string) (map[string][]byte, error) {
	files, err := c.checkout(&CheckoutOp{Paths: paths, Rev: rev})
	return files.Map(), err
}

// CheckoutTag fetches the revisions pinned under tag.
func (c *Client) CheckoutTag(tag string, paths ...string) (map[string][]byte, error) {
	files, err := c.checkout(&CheckoutOp{Paths: paths, Tag: tag})
	return files.Map(), err
}

// do runs op with content riding along when the Doer can carry it.
func (c *Client) do(op vdb.Op, push [][]byte, want bool) (any, [][]byte, error) {
	if c.carrier != nil {
		return c.carrier.DoWithContent(op, push, want)
	}
	ans, err := c.doer.Do(op)
	return ans, nil, err
}

// checkout runs op and checks every file's content, rider or fetched,
// against the hash in the verified answer: its result takes nothing
// but what that check returns.
func (c *Client) checkout(op *CheckoutOp) (rcs.Files, error) {
	ans, riders, err := c.do(op, nil, true)
	if err != nil {
		return rcs.Files{}, err
	}
	ca, ok := ans.(CheckoutAnswer)
	if !ok {
		return rcs.Files{}, fmt.Errorf("cvs: checkout returned %T", ans)
	}
	out := rcs.NewFiles(len(ca.Files))
	for i, st := range ca.Files {
		if !st.Found {
			return rcs.Files{}, fmt.Errorf("%w: %s", ErrNoFile, st.Path)
		}
		if st.Dead && op.Rev == 0 && op.Tag == "" {
			return rcs.Files{}, fmt.Errorf("%w: %s (removed at revision %d)", ErrNoFile, st.Path, st.Rev)
		}
		// A rider and a fetched blob are the same thing — bytes the
		// server chose — and pass the same check against the verified
		// answer's hash before they reach the caller.
		var content []byte
		if i < len(riders) && len(riders[i]) > 0 {
			content = riders[i]
		} else if content, err = c.content.Fetch(st.Path, st.Rev, st.Hash); err != nil {
			return rcs.Files{}, fmt.Errorf("cvs: fetch %s@%d: %w", st.Path, st.Rev, err)
		}
		checked, err := rcs.CheckContent(content, st.Hash)
		if err != nil {
			return rcs.Files{}, fmt.Errorf("%w: %s@%d", ErrContentTampered, st.Path, st.Rev)
		}
		if err := out.Add(st.Path, checked); err != nil {
			return rcs.Files{}, err
		}
	}
	return out, nil
}

// Status returns the authenticated head status of paths without
// fetching content.
func (c *Client) Status(paths ...string) ([]FileStatus, error) {
	ans, err := c.doer.Do(&CheckoutOp{Paths: paths})
	if err != nil {
		return nil, err
	}
	ca, ok := ans.(CheckoutAnswer)
	if !ok {
		return nil, fmt.Errorf("cvs: status returned %T", ans)
	}
	return ca.Files, nil
}

// Log returns the authenticated revision history of path, newest
// first (matching `cvs log`).
func (c *Client) Log(path string) ([]RevisionRecord, error) {
	ans, err := c.doer.Do(&LogOp{Path: path})
	if err != nil {
		return nil, err
	}
	la, ok := ans.(LogAnswer)
	if !ok {
		return nil, fmt.Errorf("cvs: log returned %T", ans)
	}
	out := make([]RevisionRecord, len(la.Revisions))
	for i, r := range la.Revisions {
		out[len(out)-1-i] = r
	}
	return out, nil
}

// List returns the authenticated head status of every file.
func (c *Client) List() ([]FileStatus, error) { return c.list("") }

// ListPrefix returns the authenticated head status of every file under
// the given path prefix (directory-style listing).
func (c *Client) ListPrefix(prefix string) ([]FileStatus, error) { return c.list(prefix) }

func (c *Client) list(prefix string) ([]FileStatus, error) {
	ans, err := c.doer.Do(&ListOp{Prefix: prefix})
	if err != nil {
		return nil, err
	}
	la, ok := ans.(ListAnswer)
	if !ok {
		return nil, fmt.Errorf("cvs: list returned %T", ans)
	}
	return la.Files, nil
}

// Remove removes files from the repository head (their history stays
// checkable and a later Commit resurrects them), in one atomic
// verified operation.
func (c *Client) Remove(logMsg string, paths ...string) ([]RemoveResult, error) {
	ans, err := c.doer.Do(&RemoveOp{Paths: paths, Author: c.author, Log: logMsg, TimeUnix: c.now().Unix()})
	if err != nil {
		return nil, err
	}
	ra, ok := ans.(RemoveAnswer)
	if !ok {
		return nil, fmt.Errorf("cvs: remove returned %T", ans)
	}
	return ra.Results, nil
}

// Diff returns the verified line diff of path between two revisions
// (revB == 0 means the head). Both sides are checked out with full
// verification before diffing locally.
func (c *Client) Diff(path string, revA, revB uint64) (*diff.Patch, error) {
	a, err := c.CheckoutRev(revA, path)
	if err != nil {
		return nil, fmt.Errorf("cvs: diff left side: %w", err)
	}
	var b map[string][]byte
	if revB == 0 {
		b, err = c.Checkout(path)
	} else {
		b, err = c.CheckoutRev(revB, path)
	}
	if err != nil {
		return nil, fmt.Errorf("cvs: diff right side: %w", err)
	}
	return diff.Strings(string(a[path]), string(b[path])), nil
}

// UpdateResult reports a CVS update (merge of the repository head
// into a locally edited file).
type UpdateResult struct {
	// Merged is the merge output; with conflicts it contains marker
	// lines that must be resolved before committing.
	Merged []byte
	// Conflicts is the number of conflict regions.
	Conflicts int
	// HeadRev is the repository head revision merged against; commit
	// the resolved result with BaseRev = HeadRev.
	HeadRev uint64
	// UpToDate is true when the local base already was the head (no
	// merge happened; Merged == local).
	UpToDate bool
}

// Update implements the `cvs update` workflow: the caller edited
// localContent starting from revision baseRev, someone else has
// committed since, and the repository head must be merged in (three-way
// merge, with conflict markers on overlap). Every revision involved is
// fetched with full verification.
func (c *Client) Update(path string, localContent []byte, baseRev uint64) (*UpdateResult, error) {
	if baseRev == 0 {
		return nil, fmt.Errorf("%w: update needs the base revision", vdb.ErrBadOp)
	}
	st, err := c.Status(path)
	if err != nil {
		return nil, err
	}
	if !st[0].Found || st[0].Dead {
		return nil, fmt.Errorf("%w: %s", ErrNoFile, path)
	}
	head := st[0].Rev
	if head == baseRev {
		return &UpdateResult{Merged: localContent, HeadRev: head, UpToDate: true}, nil
	}
	baseDoc, err := c.CheckoutRev(baseRev, path)
	if err != nil {
		return nil, fmt.Errorf("cvs: update base: %w", err)
	}
	headDoc, err := c.CheckoutRev(head, path)
	if err != nil {
		return nil, fmt.Errorf("cvs: update head: %w", err)
	}
	m := diff.Merge3(string(baseDoc[path]), string(localContent), string(headDoc[path]))
	return &UpdateResult{
		Merged:    []byte(m.Merged()),
		Conflicts: m.Conflicts,
		HeadRev:   head,
	}, nil
}

// Tag pins the current heads of paths under tag.
func (c *Client) Tag(tag string, paths ...string) ([]FileStatus, error) {
	ans, err := c.doer.Do(&TagOp{Tag: tag, Paths: paths})
	if err != nil {
		return nil, err
	}
	ta, ok := ans.(TagAnswer)
	if !ok {
		return nil, fmt.Errorf("cvs: tag returned %T", ans)
	}
	return ta.Tagged, nil
}
