// Package cvs implements the CVS semantics of the paper on top of the
// authenticated database: checkout and commit (Section 2.1 models them
// as read and update transactions), plus log, list and tag operations.
//
// Authenticated state (in internal/vdb, covered by the Merkle root and
// hence by every protocol) holds, per file, a head record and one
// record per revision; records carry the *content hash* of the
// revision. Revision content itself lives in the unauthenticated
// server-side store (internal/rcs): clients re-hash fetched content
// against the authenticated record, so content tampering or omission
// is always detectable.
package cvs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"trustedcvs/internal/digest"
)

// Key prefixes inside the authenticated database. The \x00 separator
// cannot appear in paths (Validate rejects it), so the key space is
// unambiguous and prefix ranges enumerate cleanly.
const (
	headPrefix = "f\x00"
	revPrefix  = "r\x00"
	tagPrefix  = "t\x00"
)

// ErrBadPath is returned for invalid repository paths.
var ErrBadPath = errors.New("cvs: invalid path")

// ErrBadRecord is returned when an authenticated record fails to
// decode. Since records are covered by the Merkle root, this can only
// happen if the users themselves committed garbage — or during
// development.
var ErrBadRecord = errors.New("cvs: malformed record")

// ValidatePath checks that a repository path is usable as a key
// component.
func ValidatePath(path string) error {
	if path == "" {
		return fmt.Errorf("%w: empty", ErrBadPath)
	}
	for i := 0; i < len(path); i++ {
		if path[i] == 0 {
			return fmt.Errorf("%w: %q contains NUL", ErrBadPath, path)
		}
	}
	return nil
}

// HeadKey is the authenticated key of a file's head record.
func HeadKey(path string) string { return headPrefix + path }

// RevKey is the authenticated key of one revision's record. Revisions
// are zero-padded so that lexicographic key order equals numeric order.
func RevKey(path string, rev uint64) string {
	return fmt.Sprintf("%s%s\x00%012d", revPrefix, path, rev)
}

// TagKey is the authenticated key pinning a (tag, path) pair to a
// revision.
func TagKey(tag, path string) string { return tagPrefix + tag + "\x00" + path }

// revRangeLo/revRangeHi bound the revision records of one path.
func revRangeLo(path string) string { return revPrefix + path + "\x00" }
func revRangeHi(path string) string { return revPrefix + path + "\x01" }

// headRangeLo/headRangeHi bound all head records.
func headRangeLo() string { return headPrefix }
func headRangeHi() string { return "f\x01" }

// HeadRecord is the authenticated head pointer of a file. Dead marks
// a removed file (CVS's "Attic"): its history remains checkable and a
// later commit resurrects it at the next revision number.
type HeadRecord struct {
	Rev  uint64
	Hash digest.Digest
	Dead bool
}

// EncodeHead serializes a head record deterministically.
func EncodeHead(h HeadRecord) []byte {
	b := make([]byte, 8+digest.Size+1)
	binary.BigEndian.PutUint64(b, h.Rev)
	copy(b[8:], h.Hash[:])
	if h.Dead {
		b[8+digest.Size] = 1
	}
	return b
}

// DecodeHead deserializes a head record.
func DecodeHead(b []byte) (HeadRecord, error) {
	if len(b) != 8+digest.Size+1 {
		return HeadRecord{}, fmt.Errorf("%w: head record length %d", ErrBadRecord, len(b))
	}
	var h HeadRecord
	h.Rev = binary.BigEndian.Uint64(b)
	copy(h.Hash[:], b[8:])
	switch b[8+digest.Size] {
	case 0:
	case 1:
		h.Dead = true
	default:
		return HeadRecord{}, fmt.Errorf("%w: head record dead flag %d", ErrBadRecord, b[8+digest.Size])
	}
	return h, nil
}

// RevisionRecord is the authenticated metadata of one committed
// revision. Dead marks the removal revision of a file.
type RevisionRecord struct {
	Rev      uint64
	Hash     digest.Digest
	Author   string
	TimeUnix int64
	Log      string
	Dead     bool
}

// EncodeRevision serializes a revision record deterministically.
func EncodeRevision(r RevisionRecord) []byte {
	b := make([]byte, 0, 8+digest.Size+1+8+8+len(r.Author)+8+len(r.Log))
	b = binary.BigEndian.AppendUint64(b, r.Rev)
	b = append(b, r.Hash[:]...)
	if r.Dead {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(r.TimeUnix))
	b = binary.BigEndian.AppendUint64(b, uint64(len(r.Author)))
	b = append(b, r.Author...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(r.Log)))
	b = append(b, r.Log...)
	return b
}

// DecodeRevision deserializes a revision record.
func DecodeRevision(b []byte) (RevisionRecord, error) {
	var r RevisionRecord
	errTrunc := fmt.Errorf("%w: truncated revision record", ErrBadRecord)
	if len(b) < 8+digest.Size+1+8+8 {
		return r, errTrunc
	}
	r.Rev = binary.BigEndian.Uint64(b)
	b = b[8:]
	copy(r.Hash[:], b[:digest.Size])
	b = b[digest.Size:]
	switch b[0] {
	case 0:
	case 1:
		r.Dead = true
	default:
		return r, fmt.Errorf("%w: revision record dead flag %d", ErrBadRecord, b[0])
	}
	b = b[1:]
	r.TimeUnix = int64(binary.BigEndian.Uint64(b))
	b = b[8:]
	alen := binary.BigEndian.Uint64(b)
	b = b[8:]
	if alen > uint64(len(b)) {
		return r, errTrunc
	}
	r.Author = string(b[:alen])
	b = b[alen:]
	if len(b) < 8 {
		return r, errTrunc
	}
	llen := binary.BigEndian.Uint64(b)
	b = b[8:]
	if uint64(len(b)) != llen {
		return r, fmt.Errorf("%w: revision record trailing length", ErrBadRecord)
	}
	r.Log = string(b)
	return r, nil
}
