// Package durable owns how bytes reach disk: the filesystem seam every
// persistence path writes through, the one atomic file replace, and
// the one checksummed envelope. Everything this system persists as a
// whole file — server snapshot, audit cursor, client register state —
// must come back as either the old version or the new one; a torn
// hybrid would turn an honest crash into a false deviation alarm.
//
// The package is stdlib + internal/digest only, so production code can
// name a filesystem without importing the fault-injection harness
// (internal/fault wraps an FS to inject crashes; only tests and
// internal/bench import it).
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"trustedcvs/internal/digest"
)

// File is the write side of one durable file: what a write-sync-close
// persistence path actually needs, plus the three calls an append-only
// journal uses to keep its hot path to one data flush. The journal
// writes a segment's full size once and flushes it, then writes each
// frame over those written blocks at its offset (WriteAt): the frame's
// flush then moves data only, with no size change and no extent to
// convert.
type File interface {
	io.Writer
	io.WriterAt
	// Sync flushes the file's data and all of its metadata (fsync).
	Sync() error
	// SyncData flushes the file's data and only the metadata needed to
	// read it back (fdatasync): a size change or an unwritten-extent
	// conversion is covered, timestamps are not. Where the platform has
	// no such call it is Sync.
	SyncData() error
	// Truncate sets the file's size.
	Truncate(size int64) error
	Close() error
}

// FS abstracts the handful of filesystem operations the crash-safe
// persistence paths perform, so tests can interpose torn writes and
// crashes at every step. OS is the real implementation.
type FS interface {
	Create(name string) (File, error)
	// Reopen opens an existing file for writing in place, without
	// truncating it: the repair path of a journal's torn tail.
	Reopen(name string) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	Exists(name string) (bool, error)
	// SyncDir fsyncs the directory itself — without it, a rename can
	// be lost on power failure even though the file data was synced.
	SyncDir(dir string) error
}

// OS is the passthrough FS backed by package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) { return wrapOS(os.Create(name)) }
func (osFS) Reopen(name string) (File, error) { return wrapOS(os.OpenFile(name, os.O_WRONLY, 0)) }
func (osFS) Remove(name string) error         { return os.Remove(name) }

// NewFile makes an open *os.File a File, for callers that open with
// flags or a mode of their own.
func NewFile(f *os.File) File { return newOSFile(f) }

func wrapOS(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return newOSFile(f), nil
}

//lint:ignore syncdiscipline the passthrough primitive itself; syncing first is the job of its one caller, WriteFileAtomic
func (osFS) Rename(o, n string) error { return os.Rename(o, n) }

func (osFS) Exists(name string) (bool, error) {
	_, err := os.Stat(name)
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

func (osFS) SyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// PrevPath names the previous generation WriteFileAtomic keeps for
// path when keepPrev is set.
func PrevPath(path string) string { return path + ".1" }

// WriteFileAtomic atomically replaces path with what write produces —
// the repo's only tmp → write → fsync → close → rename → dirsync
// sequence. A crash at any step leaves the old file or the new one,
// never a half-written hybrid under path. With keepPrev the displaced
// file survives as PrevPath(path), so a crash between the two renames
// still leaves the old generation under its rotated name and a reader
// that falls back to it (server.LoadP2Auto) loses nothing; without it
// the rename replaces path in one step. The rename dance cannot catch
// a lying disk that tears the bytes it claims to have written — wrap
// the payload in WriteEnvelope for that.
//
// fs is the filesystem to write through (nil = OS); crash tests pass a
// fault.FaultyFS.
func WriteFileAtomic(fs FS, path string, keepPrev bool, write func(io.Writer) error) error {
	if fs == nil {
		fs = OS
	}
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", tmp, err)
	}
	if err := write(f); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", tmp, err)
	}
	if keepPrev {
		ok, err := fs.Exists(path)
		if err != nil {
			return fmt.Errorf("durable: stat %s: %w", path, err)
		}
		if ok {
			if err := fs.Rename(path, PrevPath(path)); err != nil {
				return fmt.Errorf("durable: rotate %s: %w", path, err)
			}
		}
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: install %s: %w", path, err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("durable: sync dir of %s: %w", path, err)
	}
	return nil
}

// The envelope frames one payload so a loader can tell a good file
// from a torn or rotted one before trusting a single byte of it:
//
//	magic | 8-byte big-endian payload length | payload |
//	32-byte digest footer
//
// The footer is the domain-separated hash of the payload. A crash mid
// write (or a disk that lies about one) leaves a file that fails the
// length or footer check, and recovery falls back to an older
// generation instead of silently restoring garbage.

// Every refusal of an envelope wraps one of these: ErrMagic for a file
// that does not open with the expected magic (another kind of file, or
// one written before its kind had an envelope), ErrCorrupt for a torn
// write or bit rot — truncation, a length the bytes do not back, a
// checksum mismatch, stray bytes after the footer.
var (
	ErrMagic   = errors.New("durable: not this kind of file")
	ErrCorrupt = errors.New("durable: corrupt file")
)

// WriteFile atomically replaces path with payload in the envelope, the
// road every state file takes to disk.
func WriteFile(fs FS, path string, keepPrev bool, magic string, domain byte, payload []byte) error {
	return WriteFileAtomic(fs, path, keepPrev, func(w io.Writer) error {
		return WriteEnvelope(w, magic, domain, payload)
	})
}

// ReadFile returns the verified payload of the envelope that is the
// whole of the file at path. A missing file is os.ReadFile's error, so
// os.IsNotExist tells absence from corruption.
func ReadFile(path, magic string, domain byte) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(data)
	payload, err := ReadEnvelope(r, magic, domain, uint64(len(data)))
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("%w: %d bytes after the envelope footer", ErrCorrupt, r.Len())
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}

// WriteEnvelope frames payload under magic, closing it with the
// domain-separated digest footer.
func WriteEnvelope(w io.Writer, magic string, domain byte, payload []byte) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("durable: write envelope magic: %w", err)
	}
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("durable: write envelope length: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("durable: write envelope payload: %w", err)
	}
	sum := digest.OfBytes(domain, payload)
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("durable: write envelope footer: %w", err)
	}
	return nil
}

// ReadEnvelope reads one envelope written under magic and domain and
// returns its verified payload. maxBytes bounds the declared payload
// length so a corrupt header cannot demand an absurd allocation before
// the footer check gets a chance to reject it.
func ReadEnvelope(r io.Reader, magic string, domain byte, maxBytes uint64) ([]byte, error) {
	header := make([]byte, len(magic)+8)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: envelope header: %w", ErrCorrupt, err)
	}
	if string(header[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: envelope magic %q, want %q", ErrMagic, header[:len(magic)], magic)
	}
	n := binary.BigEndian.Uint64(header[len(magic):])
	if n > maxBytes {
		return nil, fmt.Errorf("%w: envelope declares implausible payload length %d", ErrCorrupt, n)
	}
	// Copy rather than pre-allocate n bytes: a corrupt length field must
	// not buy a giant allocation backed by nothing.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, fmt.Errorf("%w: envelope payload truncated: %w", ErrCorrupt, err)
	}
	payload := buf.Bytes()
	var footer digest.Digest
	if _, err := io.ReadFull(r, footer[:]); err != nil {
		return nil, fmt.Errorf("%w: envelope footer truncated: %w", ErrCorrupt, err)
	}
	if sum := digest.OfBytes(domain, payload); sum != footer {
		return nil, fmt.Errorf("%w: envelope checksum mismatch: footer %s, payload hashes to %s", ErrCorrupt, footer.Short(), sum.Short())
	}
	return payload, nil
}
