package cvs

import (
	"fmt"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/vdb"
)

// CommitFile names one file of a commit: its path, the content hash of
// the new revision, and the revision the committer based its edit on
// (0 = skip the up-to-date check, CVS's unconditional commit).
type CommitFile struct {
	Path    string
	Hash    digest.Digest
	BaseRev uint64
}

// CommitOp atomically commits a set of files: per file it bumps the
// head revision, writes the head record, and appends a revision
// record. Files whose BaseRev is stale are skipped and reported as
// conflicts (CVS's "up-to-date check failed"), leaving the rest of the
// commit intact.
//
// The whole commit is ONE operation of the paper's model — one ctr
// increment, one VO — which is what makes multi-file commits atomic
// under all three protocols.
type CommitOp struct {
	Files    []CommitFile
	Author   string
	Log      string
	TimeUnix int64
}

// CommitResult reports the outcome for one file of a CommitOp.
type CommitResult struct {
	Path     string
	Rev      uint64 // assigned revision; 0 on conflict
	Conflict bool   // BaseRev did not match the head at apply time
}

// CommitAnswer is the answer type of CommitOp.
type CommitAnswer struct {
	Results []CommitResult
}

// Apply implements vdb.Op.
func (o *CommitOp) Apply(tx *vdb.Tx) (any, error) {
	if len(o.Files) == 0 {
		return nil, fmt.Errorf("%w: commit with no files", vdb.ErrBadOp)
	}
	seen := make(map[string]bool, len(o.Files))
	for _, f := range o.Files {
		if err := ValidatePath(f.Path); err != nil {
			return nil, err
		}
		if f.Hash.IsZero() {
			return nil, fmt.Errorf("%w: commit of %q without content hash", vdb.ErrBadOp, f.Path)
		}
		if seen[f.Path] {
			return nil, fmt.Errorf("%w: duplicate path %q in commit", vdb.ErrBadOp, f.Path)
		}
		seen[f.Path] = true
	}
	ans := CommitAnswer{Results: make([]CommitResult, len(o.Files))}
	for i, f := range o.Files {
		raw, found, err := tx.Get(HeadKey(f.Path))
		if err != nil {
			return nil, err
		}
		var prev uint64
		if found {
			h, err := DecodeHead(raw)
			if err != nil {
				return nil, err
			}
			prev = h.Rev
		}
		if f.BaseRev != 0 && f.BaseRev != prev {
			ans.Results[i] = CommitResult{Path: f.Path, Conflict: true}
			continue
		}
		rev := prev + 1
		if err := tx.Put(HeadKey(f.Path), EncodeHead(HeadRecord{Rev: rev, Hash: f.Hash})); err != nil {
			return nil, err
		}
		rec := RevisionRecord{Rev: rev, Hash: f.Hash, Author: o.Author, TimeUnix: o.TimeUnix, Log: o.Log}
		if err := tx.Put(RevKey(f.Path, rev), EncodeRevision(rec)); err != nil {
			return nil, err
		}
		ans.Results[i] = CommitResult{Path: f.Path, Rev: rev}
	}
	return ans, nil
}

func (o *CommitOp) String() string { return fmt.Sprintf("commit(%d files)", len(o.Files)) }

// RemoveOp removes files (CVS `cvs remove` + commit): the head is
// marked dead at a new revision number, history remains fully
// checkable, and a later CommitOp resurrects the file at the next
// revision.
type RemoveOp struct {
	Paths    []string
	Author   string
	Log      string
	TimeUnix int64
}

// RemoveResult reports the outcome for one path of a RemoveOp.
type RemoveResult struct {
	Path string
	// Rev is the removal revision; 0 when the path did not exist (or
	// was already dead).
	Rev uint64
}

// RemoveAnswer is the answer type of RemoveOp.
type RemoveAnswer struct {
	Results []RemoveResult
}

// Apply implements vdb.Op.
func (o *RemoveOp) Apply(tx *vdb.Tx) (any, error) {
	if len(o.Paths) == 0 {
		return nil, fmt.Errorf("%w: remove with no paths", vdb.ErrBadOp)
	}
	seen := make(map[string]bool, len(o.Paths))
	for _, p := range o.Paths {
		if err := ValidatePath(p); err != nil {
			return nil, err
		}
		if seen[p] {
			return nil, fmt.Errorf("%w: duplicate path %q in remove", vdb.ErrBadOp, p)
		}
		seen[p] = true
	}
	ans := RemoveAnswer{Results: make([]RemoveResult, len(o.Paths))}
	for i, p := range o.Paths {
		ans.Results[i] = RemoveResult{Path: p}
		raw, found, err := tx.Get(HeadKey(p))
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		h, err := DecodeHead(raw)
		if err != nil {
			return nil, err
		}
		if h.Dead {
			continue
		}
		rev := h.Rev + 1
		if err := tx.Put(HeadKey(p), EncodeHead(HeadRecord{Rev: rev, Hash: h.Hash, Dead: true})); err != nil {
			return nil, err
		}
		rec := RevisionRecord{Rev: rev, Hash: h.Hash, Author: o.Author, TimeUnix: o.TimeUnix, Log: o.Log, Dead: true}
		if err := tx.Put(RevKey(p, rev), EncodeRevision(rec)); err != nil {
			return nil, err
		}
		ans.Results[i].Rev = rev
	}
	return ans, nil
}

func (o *RemoveOp) String() string { return fmt.Sprintf("remove(%d paths)", len(o.Paths)) }

// CheckoutOp reads the authenticated head (or tagged, or historical)
// records for a set of files. The content itself is fetched separately
// and verified against the returned hashes.
type CheckoutOp struct {
	Paths []string
	Rev   uint64 // >0: that revision for every path (Tag must be empty)
	Tag   string // nonempty: the revisions pinned by this tag
}

// FileStatus is the authenticated answer entry for one file. Dead
// reports a removed file (its history is still in the repository).
type FileStatus struct {
	Path  string
	Found bool
	Rev   uint64
	Hash  digest.Digest
	Dead  bool
}

// CheckoutAnswer is the answer type of CheckoutOp.
type CheckoutAnswer struct {
	Files []FileStatus
}

// Apply implements vdb.Op.
func (o *CheckoutOp) Apply(tx *vdb.Tx) (any, error) {
	if len(o.Paths) == 0 {
		return nil, fmt.Errorf("%w: checkout with no paths", vdb.ErrBadOp)
	}
	if o.Rev != 0 && o.Tag != "" {
		return nil, fmt.Errorf("%w: checkout with both rev and tag", vdb.ErrBadOp)
	}
	ans := CheckoutAnswer{Files: make([]FileStatus, len(o.Paths))}
	for i, p := range o.Paths {
		if err := ValidatePath(p); err != nil {
			return nil, err
		}
		var key string
		switch {
		case o.Tag != "":
			key = TagKey(o.Tag, p)
		case o.Rev != 0:
			key = RevKey(p, o.Rev)
		default:
			key = HeadKey(p)
		}
		raw, found, err := tx.Get(key)
		if err != nil {
			return nil, err
		}
		st := FileStatus{Path: p}
		if found {
			var rev uint64
			var hash digest.Digest
			var dead bool
			if o.Rev != 0 && o.Tag == "" {
				r, err := DecodeRevision(raw)
				if err != nil {
					return nil, err
				}
				rev, hash, dead = r.Rev, r.Hash, r.Dead
			} else {
				h, err := DecodeHead(raw)
				if err != nil {
					return nil, err
				}
				rev, hash, dead = h.Rev, h.Hash, h.Dead
			}
			st = FileStatus{Path: p, Found: true, Rev: rev, Hash: hash, Dead: dead}
		}
		ans.Files[i] = st
	}
	return ans, nil
}

func (o *CheckoutOp) String() string { return fmt.Sprintf("checkout(%d paths)", len(o.Paths)) }

// LogOp reads the full authenticated revision history of one file,
// oldest first.
type LogOp struct {
	Path string
}

// LogAnswer is the answer type of LogOp.
type LogAnswer struct {
	Revisions []RevisionRecord
}

// Apply implements vdb.Op.
func (o *LogOp) Apply(tx *vdb.Tx) (any, error) {
	if err := ValidatePath(o.Path); err != nil {
		return nil, err
	}
	var ans LogAnswer
	var decodeErr error
	err := tx.Range(revRangeLo(o.Path), revRangeHi(o.Path), func(_, raw []byte) bool {
		r, err := DecodeRevision(raw)
		if err != nil {
			decodeErr = err
			return false
		}
		ans.Revisions = append(ans.Revisions, r)
		return true
	})
	if err != nil {
		return nil, err
	}
	if decodeErr != nil {
		return nil, decodeErr
	}
	return ans, nil
}

func (o *LogOp) String() string { return fmt.Sprintf("log(%s)", o.Path) }

// ListOp enumerates file head records. Prefix, when set, restricts
// the listing to paths under it ("src/" lists one directory subtree).
type ListOp struct {
	Prefix string
}

// ListAnswer is the answer type of ListOp.
type ListAnswer struct {
	Files []FileStatus
}

// Apply implements vdb.Op.
func (o *ListOp) Apply(tx *vdb.Tx) (any, error) {
	lo, hi := headRangeLo(), headRangeHi()
	if o.Prefix != "" {
		if err := ValidatePath(o.Prefix); err != nil {
			return nil, err
		}
		lo = headPrefix + o.Prefix
		if up, ok := upperBound(o.Prefix); ok {
			hi = headPrefix + up
		}
		// An all-0xFF prefix has no finite successor; the global head
		// bound already covers it.
	}
	var ans ListAnswer
	var decodeErr error
	err := tx.Range(lo, hi, func(key, raw []byte) bool {
		h, err := DecodeHead(raw)
		if err != nil {
			decodeErr = err
			return false
		}
		ans.Files = append(ans.Files, FileStatus{
			Path:  string(key[len(headPrefix):]),
			Found: true,
			Rev:   h.Rev,
			Hash:  h.Hash,
			Dead:  h.Dead,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	if decodeErr != nil {
		return nil, decodeErr
	}
	return ans, nil
}

func (o *ListOp) String() string {
	if o.Prefix != "" {
		return fmt.Sprintf("list(%s*)", o.Prefix)
	}
	return "list"
}

// upperBound returns the smallest string greater than every string
// with the given prefix (false when no finite bound exists, i.e. the
// prefix is all 0xFF bytes).
func upperBound(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}

// TagOp pins the current head revision of each path under a symbolic
// tag (like `cvs tag`).
type TagOp struct {
	Tag   string
	Paths []string
}

// TagAnswer is the answer type of TagOp.
type TagAnswer struct {
	Tagged []FileStatus // the head revisions that were pinned
}

// Apply implements vdb.Op.
func (o *TagOp) Apply(tx *vdb.Tx) (any, error) {
	if o.Tag == "" || len(o.Paths) == 0 {
		return nil, fmt.Errorf("%w: tag needs a name and paths", vdb.ErrBadOp)
	}
	if err := ValidatePath(o.Tag); err != nil {
		return nil, fmt.Errorf("%w: bad tag name", vdb.ErrBadOp)
	}
	ans := TagAnswer{Tagged: make([]FileStatus, len(o.Paths))}
	for i, p := range o.Paths {
		if err := ValidatePath(p); err != nil {
			return nil, err
		}
		raw, found, err := tx.Get(HeadKey(p))
		if err != nil {
			return nil, err
		}
		if !found {
			ans.Tagged[i] = FileStatus{Path: p}
			continue
		}
		h, err := DecodeHead(raw)
		if err != nil {
			return nil, err
		}
		if err := tx.Put(TagKey(o.Tag, p), raw); err != nil {
			return nil, err
		}
		ans.Tagged[i] = FileStatus{Path: p, Found: true, Rev: h.Rev, Hash: h.Hash}
	}
	return ans, nil
}

func (o *TagOp) String() string { return fmt.Sprintf("tag(%s, %d paths)", o.Tag, len(o.Paths)) }
