// Package workspace implements the verified working copy: a local
// directory bound to a Trusted CVS repository, with per-file base
// revisions tracked in a metadata file — the `cvs checkout` sandbox
// model. All repository interaction goes through the verified client,
// so everything on disk arrived with a proof; the workspace adds the
// bookkeeping that makes `status`, `update` (three-way merge) and
// `commit` (up-to-date checks, conflict-marker refusal) work like the
// real tool.
package workspace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/diff"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/rcs"
)

// MetaFile is the workspace metadata file, stored inside the
// workspace directory: the tracked entries in path order, replaced
// atomically inside the checksummed envelope (durable.WriteFile).
//
//	metaFormat | uvarint(n) n×( string(path) uvarint(rev) hash[32] )
const MetaFile = ".tcvs-workspace"

const (
	metaMagic  = "TCVSWORK1\n"
	metaFormat = 0x8B // in 0x80–0xF7, where no gob stream starts
)

// ErrMetaFormat is returned by Open for metadata that is not in this
// binary's format — written by an older binary, which kept a bare gob
// map there. It is refused, never converted: commit or discard the
// working copy with the binary that wrote it, or check out afresh.
var ErrMetaFormat = errors.New("workspace: metadata is not in this binary's format")

// ErrUnsafePath is returned for repository paths that would escape the
// workspace directory.
var ErrUnsafePath = errors.New("workspace: unsafe path")

// ErrConflictMarkers is returned by Commit when a file still contains
// unresolved merge conflict markers.
var ErrConflictMarkers = errors.New("workspace: unresolved conflict markers")

// ErrNotTracked is returned when operating on a file the workspace
// does not track.
var ErrNotTracked = errors.New("workspace: file not tracked")

// entry is the tracked state of one file: the revision and content
// hash it was based on at checkout/update/commit time.
type entry struct {
	Rev  uint64
	Hash digest.Digest
}

// Workspace is a working copy rooted at a directory.
type Workspace struct {
	dir  string
	repo *cvs.Client
	meta map[string]entry
	fs   durable.FS // nil: the real filesystem; tests inject write faults
}

// Open binds dir (created if missing) to the repository client,
// loading existing metadata.
func Open(dir string, repo *cvs.Client) (*Workspace, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Workspace{dir: dir, repo: repo, meta: map[string]entry{}}
	path := filepath.Join(dir, MetaFile)
	payload, err := durable.ReadFile(path, metaMagic, digest.DomainSnapshot)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return w, nil
	case errors.Is(err, durable.ErrMagic), err == nil && (len(payload) == 0 || payload[0] != metaFormat):
		return nil, fmt.Errorf("%w: %s", ErrMetaFormat, path)
	case err != nil:
		return nil, fmt.Errorf("workspace: metadata: %w", err)
	}
	r := binenc.NewReader(payload[1:])
	for n, prev := r.Count(2+digest.Size), ""; n > 0; n-- {
		var e entry
		path := r.String()
		if e.Rev = r.Uvarint(); path <= prev {
			r.Fail("path %q out of order", path)
		}
		copy(e.Hash[:], r.View(digest.Size))
		w.meta[path], prev = e, path
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("workspace: metadata: %w", err)
	}
	return w, nil
}

// Dir returns the workspace root.
func (w *Workspace) Dir() string { return w.dir }

// Tracked returns the tracked repository paths, sorted.
func (w *Workspace) Tracked() []string {
	out := make([]string, 0, len(w.meta))
	for p := range w.meta {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// save replaces the metadata file. A crash mid-save leaves the
// previous file: losing it would lose every tracked base revision.
func (w *Workspace) save() error {
	b := binary.AppendUvarint([]byte{metaFormat}, uint64(len(w.meta)))
	for _, p := range w.Tracked() {
		e := w.meta[p]
		b = append(binary.AppendUvarint(binenc.AppendString(b, p), e.Rev), e.Hash[:]...)
	}
	return durable.WriteFile(w.fs, filepath.Join(w.dir, MetaFile), false, metaMagic, digest.DomainSnapshot, b)
}

// fsPath maps a repository path onto the workspace, refusing escapes.
func (w *Workspace) fsPath(repoPath string) (string, error) {
	if repoPath == "" || strings.HasPrefix(repoPath, "/") {
		return "", fmt.Errorf("%w: %q", ErrUnsafePath, repoPath)
	}
	clean := filepath.Clean(filepath.FromSlash(repoPath))
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) || filepath.IsAbs(clean) {
		return "", fmt.Errorf("%w: %q", ErrUnsafePath, repoPath)
	}
	if clean == MetaFile {
		return "", fmt.Errorf("%w: %q collides with workspace metadata", ErrUnsafePath, repoPath)
	}
	return filepath.Join(w.dir, clean), nil
}

func (w *Workspace) write(repoPath string, content []byte) error {
	fp, err := w.fsPath(repoPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(fp), 0o755); err != nil {
		return err
	}
	return os.WriteFile(fp, content, 0o644)
}

func (w *Workspace) read(repoPath string) ([]byte, error) {
	fp, err := w.fsPath(repoPath)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(fp)
}

// Checkout fetches the given paths (verified) into the workspace and
// tracks them.
func (w *Workspace) Checkout(paths ...string) error {
	files, err := w.repo.Checkout(paths...)
	if err != nil {
		return err
	}
	st, err := w.repo.Status(paths...)
	if err != nil {
		return err
	}
	for _, s := range st {
		content := files[s.Path]
		if err := w.write(s.Path, content); err != nil {
			return err
		}
		w.meta[s.Path] = entry{Rev: s.Rev, Hash: s.Hash}
	}
	return w.save()
}

// CheckoutAll fetches every repository file under prefix ("" = all).
func (w *Workspace) CheckoutAll(prefix string) error {
	var files []cvs.FileStatus
	var err error
	if prefix == "" {
		files, err = w.repo.List()
	} else {
		files, err = w.repo.ListPrefix(prefix)
	}
	if err != nil {
		return err
	}
	var paths []string
	for _, f := range files {
		if !f.Dead {
			paths = append(paths, f.Path)
		}
	}
	if len(paths) == 0 {
		return nil
	}
	return w.Checkout(paths...)
}

// Add starts tracking a locally created file (to be committed as
// revision 1, or resurrected). The file must exist in the workspace.
func (w *Workspace) Add(repoPath string) error {
	if _, err := w.read(repoPath); err != nil {
		return err
	}
	if _, ok := w.meta[repoPath]; !ok {
		w.meta[repoPath] = entry{} // Rev 0: unconditional first commit
	}
	return w.save()
}

// FileState classifies one tracked file.
type FileState struct {
	Path string
	// Modified: local content differs from the base revision.
	Modified bool
	// OutOfDate: the repository head has moved past the base revision.
	OutOfDate bool
	// Missing: the file disappeared from the workspace.
	Missing bool
	// BaseRev / HeadRev are the tracked and repository revisions.
	BaseRev, HeadRev uint64
}

// Status reports the state of every tracked file (one verified
// repository round trip).
func (w *Workspace) Status() ([]FileState, error) {
	paths := w.Tracked()
	if len(paths) == 0 {
		return nil, nil
	}
	st, err := w.repo.Status(paths...)
	if err != nil {
		return nil, err
	}
	out := make([]FileState, 0, len(paths))
	for _, s := range st {
		e := w.meta[s.Path]
		fs := FileState{Path: s.Path, BaseRev: e.Rev}
		if s.Found && !s.Dead {
			fs.HeadRev = s.Rev
			fs.OutOfDate = s.Rev != e.Rev
		}
		content, err := w.read(s.Path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			fs.Missing = true
		case err != nil:
			return nil, err
		default:
			fs.Modified = rcs.HashContent(content) != e.Hash
		}
		out = append(out, fs)
	}
	return out, nil
}

// UpdateReport summarizes one file's outcome from Update.
type UpdateReport struct {
	Path      string
	Action    string // "unchanged", "refreshed", "merged", "conflict"
	Conflicts int
	NewBase   uint64
}

// Update brings every tracked file up to the repository head: clean
// files are refreshed, locally modified files are three-way merged
// (conflict markers written on overlap). The new base revisions are
// recorded; conflicted files must be resolved before Commit.
func (w *Workspace) Update() ([]UpdateReport, error) {
	states, err := w.Status()
	if err != nil {
		return nil, err
	}
	var out []UpdateReport
	for _, fs := range states {
		rep := UpdateReport{Path: fs.Path, Action: "unchanged", NewBase: fs.BaseRev}
		switch {
		case fs.Missing || !fs.OutOfDate:
			// Nothing to pull (missing files are left to the caller).
		case !fs.Modified:
			// Fast-forward to the head.
			files, err := w.repo.Checkout(fs.Path)
			if err != nil {
				return nil, err
			}
			if err := w.write(fs.Path, files[fs.Path]); err != nil {
				return nil, err
			}
			w.meta[fs.Path] = entry{Rev: fs.HeadRev, Hash: rcs.HashContent(files[fs.Path])}
			rep.Action, rep.NewBase = "refreshed", fs.HeadRev
		default:
			local, err := w.read(fs.Path)
			if err != nil {
				return nil, err
			}
			up, err := w.repo.Update(fs.Path, local, fs.BaseRev)
			if err != nil {
				return nil, err
			}
			if err := w.write(fs.Path, up.Merged); err != nil {
				return nil, err
			}
			// The merged result is based on the head revision; its
			// recorded hash is the head's so the file shows as
			// Modified until committed.
			headStatus, err := w.repo.Status(fs.Path)
			if err != nil {
				return nil, err
			}
			w.meta[fs.Path] = entry{Rev: up.HeadRev, Hash: headStatus[0].Hash}
			rep.NewBase = up.HeadRev
			if up.Conflicts > 0 {
				rep.Action, rep.Conflicts = "conflict", up.Conflicts
			} else {
				rep.Action = "merged"
			}
		}
		out = append(out, rep)
	}
	return out, w.save()
}

// Remove deletes a tracked file from both the workspace and the
// repository head (Attic semantics: history remains checkable).
func (w *Workspace) Remove(logMsg, repoPath string) error {
	if _, ok := w.meta[repoPath]; !ok {
		return fmt.Errorf("%w: %s", ErrNotTracked, repoPath)
	}
	if _, err := w.repo.Remove(logMsg, repoPath); err != nil {
		return err
	}
	fp, err := w.fsPath(repoPath)
	if err != nil {
		return err
	}
	if err := os.Remove(fp); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	delete(w.meta, repoPath)
	return w.save()
}

// Commit commits every locally modified tracked file in one atomic
// verified operation, with up-to-date checks against the recorded base
// revisions. Files containing conflict markers are refused.
func (w *Workspace) Commit(logMsg string) ([]cvs.CommitResult, error) {
	states, err := w.Status()
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	baseRevs := map[string]uint64{}
	for _, fs := range states {
		if fs.Missing || !fs.Modified {
			continue
		}
		content, err := w.read(fs.Path)
		if err != nil {
			return nil, err
		}
		if diff.HasConflictMarkers(string(content)) {
			return nil, fmt.Errorf("%w: %s", ErrConflictMarkers, fs.Path)
		}
		files[fs.Path] = content
		if fs.BaseRev > 0 {
			baseRevs[fs.Path] = fs.BaseRev
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	results, err := w.repo.Commit(files, logMsg, baseRevs)
	if err != nil {
		return results, err
	}
	for _, r := range results {
		if !r.Conflict {
			w.meta[r.Path] = entry{Rev: r.Rev, Hash: rcs.HashContent(files[r.Path])}
		}
	}
	return results, w.save()
}
