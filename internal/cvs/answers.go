package cvs

import (
	"encoding/binary"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/vdb"
)

// Answer type tags of this package (vdb.WireAnswer); internal/vdb owns
// 1–6. The numbers are part of the wire format.
const (
	tagCommit   = 16
	tagCheckout = 17
	tagLog      = 18
	tagList     = 19
	tagTag      = 20
	tagRemove   = 21
)

func init() {
	vdb.RegisterAnswer(tagCommit, func(r *binenc.Reader) any {
		var ans CommitAnswer
		if n := r.Count(3); n > 0 {
			ans.Results = make([]CommitResult, n)
			for i := range ans.Results {
				ans.Results[i] = CommitResult{Path: r.String(), Rev: r.Uvarint(), Conflict: r.Bool()}
			}
		}
		return ans
	})
	vdb.RegisterAnswer(tagCheckout, func(r *binenc.Reader) any { return CheckoutAnswer{Files: readFiles(r)} })
	vdb.RegisterAnswer(tagLog, func(r *binenc.Reader) any {
		var ans LogAnswer
		if n := r.Count(1); n > 0 {
			ans.Revisions = make([]RevisionRecord, n)
			for i := range ans.Revisions {
				rec, err := DecodeRevision(r.View(r.Count(1)))
				if err != nil {
					r.Fail("%v", err)
				}
				ans.Revisions[i] = rec
			}
		}
		return ans
	})
	vdb.RegisterAnswer(tagList, func(r *binenc.Reader) any { return ListAnswer{Files: readFiles(r)} })
	vdb.RegisterAnswer(tagTag, func(r *binenc.Reader) any { return TagAnswer{Tagged: readFiles(r)} })
	vdb.RegisterAnswer(tagRemove, func(r *binenc.Reader) any {
		var ans RemoveAnswer
		if n := r.Count(2); n > 0 {
			ans.Results = make([]RemoveResult, n)
			for i := range ans.Results {
				ans.Results[i] = RemoveResult{Path: r.String(), Rev: r.Uvarint()}
			}
		}
		return ans
	})
}

// fileStatusMin is the smallest encoded FileStatus: an empty path, two
// flags, a one-byte revision and the hash.
const fileStatusMin = 4 + digest.Size

func appendFiles(b []byte, fs []FileStatus) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = binenc.AppendString(b, f.Path)
		b = binenc.AppendBool(b, f.Found)
		b = binary.AppendUvarint(b, f.Rev)
		b = append(b, f.Hash[:]...)
		b = binenc.AppendBool(b, f.Dead)
	}
	return b
}

func readFiles(r *binenc.Reader) []FileStatus {
	n := r.Count(fileStatusMin)
	if n == 0 {
		return nil
	}
	out := make([]FileStatus, n)
	for i := range out {
		f := &out[i]
		f.Path, f.Found, f.Rev = r.String(), r.Bool(), r.Uvarint()
		copy(f.Hash[:], r.View(digest.Size))
		f.Dead = r.Bool()
	}
	return out
}

// VisitCheckoutAnswer walks an encoded CheckoutAnswer without building
// it: visit sees each file's index (its index in CheckoutOp.Paths) and
// its status with the path left out. The content handler attaches
// blobs with it on every checkout, so it allocates nothing; bytes that
// are not a CheckoutAnswer are visited as far as they parse.
func VisitCheckoutAnswer(answer []byte, visit func(i int, st FileStatus)) {
	var r binenc.Reader
	r.Reset(answer)
	if r.Byte() != tagCheckout {
		return
	}
	for i, n := 0, r.Count(fileStatusMin); i < n; i++ {
		r.View(r.Count(1))
		st := FileStatus{Found: r.Bool(), Rev: r.Uvarint()}
		copy(st.Hash[:], r.View(digest.Size))
		st.Dead = r.Bool()
		if r.Err() != nil {
			return
		}
		visit(i, st)
	}
}

// AppendAnswer implements vdb.WireAnswer.
func (a CommitAnswer) AppendAnswer(b []byte) []byte {
	b = append(b, tagCommit)
	b = binary.AppendUvarint(b, uint64(len(a.Results)))
	for _, res := range a.Results {
		b = binenc.AppendString(b, res.Path)
		b = binary.AppendUvarint(b, res.Rev)
		b = binenc.AppendBool(b, res.Conflict)
	}
	return b
}

// AppendAnswer implements vdb.WireAnswer.
func (a CheckoutAnswer) AppendAnswer(b []byte) []byte {
	return appendFiles(append(b, tagCheckout), a.Files)
}

// AppendAnswer implements vdb.WireAnswer. Each revision travels as its
// authenticated database record (EncodeRevision), length-prefixed.
func (a LogAnswer) AppendAnswer(b []byte) []byte {
	b = append(b, tagLog)
	b = binary.AppendUvarint(b, uint64(len(a.Revisions)))
	for _, rec := range a.Revisions {
		b = binenc.AppendBytes(b, EncodeRevision(rec))
	}
	return b
}

// AppendAnswer implements vdb.WireAnswer.
func (a ListAnswer) AppendAnswer(b []byte) []byte { return appendFiles(append(b, tagList), a.Files) }

// AppendAnswer implements vdb.WireAnswer.
func (a TagAnswer) AppendAnswer(b []byte) []byte { return appendFiles(append(b, tagTag), a.Tagged) }

// AppendAnswer implements vdb.WireAnswer.
func (a RemoveAnswer) AppendAnswer(b []byte) []byte {
	b = append(b, tagRemove)
	b = binary.AppendUvarint(b, uint64(len(a.Results)))
	for _, res := range a.Results {
		b = binenc.AppendString(b, res.Path)
		b = binary.AppendUvarint(b, res.Rev)
	}
	return b
}
