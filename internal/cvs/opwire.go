package cvs

import (
	"encoding/binary"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/wire"
)

// Wire tags of this package's operations (wire.Register); internal/vdb
// owns 48–53. The numbers are part of the wire and journal formats.
const (
	wireCommitOp   = 64
	wireCheckoutOp = 65
	wireLogOp      = 66
	wireListOp     = 67
	wireTagOp      = 68
	wireRemoveOp   = 69
)

// commitFileMin is the smallest encoded CommitFile: an empty path, the
// hash and a one-byte base revision.
const commitFileMin = 2 + digest.Size

func init() {
	wire.Register(wireCommitOp, func(b []byte, o *CommitOp) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(len(o.Files)))
		for _, f := range o.Files {
			b = binenc.AppendString(b, f.Path)
			b = append(b, f.Hash[:]...)
			b = binary.AppendUvarint(b, f.BaseRev)
		}
		return appendChange(b, o.Author, o.Log, o.TimeUnix), nil
	}, func(r *binenc.Reader) *CommitOp {
		o := new(CommitOp)
		if n := r.Count(commitFileMin); n > 0 {
			o.Files = make([]CommitFile, n)
			for i := range o.Files {
				f := &o.Files[i]
				f.Path = r.String()
				copy(f.Hash[:], r.View(digest.Size))
				f.BaseRev = r.Uvarint()
			}
		}
		o.Author, o.Log, o.TimeUnix = readChange(r)
		return o
	})
	wire.Register(wireCheckoutOp, func(b []byte, o *CheckoutOp) ([]byte, error) {
		b = binenc.AppendStrings(b, o.Paths)
		b = binary.AppendUvarint(b, o.Rev)
		return binenc.AppendString(b, o.Tag), nil
	}, func(r *binenc.Reader) *CheckoutOp {
		return &CheckoutOp{Paths: r.Strings(), Rev: r.Uvarint(), Tag: r.String()}
	})
	wire.Register(wireLogOp, func(b []byte, o *LogOp) ([]byte, error) {
		return binenc.AppendString(b, o.Path), nil
	}, func(r *binenc.Reader) *LogOp {
		return &LogOp{Path: r.String()}
	})
	wire.Register(wireListOp, func(b []byte, o *ListOp) ([]byte, error) {
		return binenc.AppendString(b, o.Prefix), nil
	}, func(r *binenc.Reader) *ListOp {
		return &ListOp{Prefix: r.String()}
	})
	wire.Register(wireTagOp, func(b []byte, o *TagOp) ([]byte, error) {
		return binenc.AppendStrings(binenc.AppendString(b, o.Tag), o.Paths), nil
	}, func(r *binenc.Reader) *TagOp {
		return &TagOp{Tag: r.String(), Paths: r.Strings()}
	})
	wire.Register(wireRemoveOp, func(b []byte, o *RemoveOp) ([]byte, error) {
		return appendChange(binenc.AppendStrings(b, o.Paths), o.Author, o.Log, o.TimeUnix), nil
	}, func(r *binenc.Reader) *RemoveOp {
		o := &RemoveOp{Paths: r.Strings()}
		o.Author, o.Log, o.TimeUnix = readChange(r)
		return o
	})
}

// appendChange appends the change metadata CommitOp and RemoveOp share.
func appendChange(b []byte, author, log string, timeUnix int64) []byte {
	b = binenc.AppendString(b, author)
	b = binenc.AppendString(b, log)
	return binary.AppendVarint(b, timeUnix)
}

func readChange(r *binenc.Reader) (author, log string, timeUnix int64) {
	return r.String(), r.String(), r.Varint()
}
