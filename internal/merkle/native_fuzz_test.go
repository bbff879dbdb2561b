package merkle

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"trustedcvs/internal/digest"
)

// FuzzVOVerify decodes arbitrary bytes as a verification object — the
// one structure an honest client materializes straight off the
// untrusted wire — through ViewVO, the decoder every
// response's VO goes through, and exercises the whole verifier surface:
// Tree() structural validation, digest computation, lookups, ranges,
// and Replay. Properties: no panic on any input, every refusal is
// ErrMalformedVO, accepted input re-marshals byte-identically,
// soundness — a VO whose materialized root digest equals the honest
// root can only answer lookups with the honest values — and puts and
// deletes replayed on the VO's nodes never write into the bytes it was
// received in, and replaying in an Arena that earlier inputs used comes
// to what replaying in fresh memory does. The checked-in corpus
// (testdata/fuzz/FuzzVOVerify) holds the golden read and update VOs;
// `go test -run VOBinaryGolden -update` regenerates it.
func FuzzVOVerify(f *testing.F) {
	root, read, _ := goldenVOs(f)
	seed := mustMarshal(f, read)
	f.Add(append([]byte(nil), seed[:len(seed)/2]...))
	f.Add([]byte{})

	var arena Arena // reused from input to input, as a verifier reuses it
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := ViewVO(b)
		if err != nil {
			if !errors.Is(err, ErrMalformedVO) {
				t.Fatalf("decode refusal is not ErrMalformedVO: %v", err)
			}
			return
		}
		if again := mustMarshal(t, v); !bytes.Equal(again, b) {
			t.Fatalf("accepted input %x re-marshals as %x", b, again)
		}
		tree, err := v.Tree()
		if err != nil {
			if !errors.Is(err, ErrMalformedVO) {
				t.Fatalf("Tree refusal is not ErrMalformedVO: %v", err)
			}
			return
		}
		if tree.RootDigest() == root {
			val, ok, gerr := tree.GetErr("key-007")
			if gerr == nil && ok && !bytes.Equal(val, []byte{7}) {
				t.Fatalf("forged VO verified against the honest root with value %x", val)
			}
		}
		_ = tree.Height()
		_, _, _ = tree.GetErr("key-031")
		_ = tree.Range("key-000", "key-063", func(_, _ []byte) bool { return true })
		_, _ = v.Replay(root, func(cur *Tree) (*Tree, error) { return cur, nil })
		// The verifier's replay owns the nodes, never the bytes under
		// them: writes through it leave the received bytes as they were.
		// The same replay in an arena that earlier inputs used comes to
		// the same digests and errors as in fresh memory.
		received := bytes.Clone(b)
		fresh, reused := replayTrace(v.Begin()), replayTrace(arena.Begin(v))
		arena.End()
		if fresh != reused {
			t.Fatalf("replay in fresh memory %q, in reused memory %q", fresh, reused)
		}
		if !bytes.Equal(b, received) {
			t.Fatalf("replaying on the VO wrote into its bytes")
		}
	})
}

// replayTrace replays a put, an insert and a delete in the transaction
// Begin returned and spells out every digest and error on the way.
func replayTrace(rec *Recording, old digest.Digest, err error) string {
	if err != nil {
		return err.Error()
	}
	trace := fmt.Sprintf("old %x", old)
	for _, step := range []func() error{
		func() error { return rec.Put("key-031", []byte("updated")) },
		func() error { return rec.Put("key-031x", []byte("inserted")) },
		func() error { _, err := rec.Delete("key-007"); return err },
	} {
		trace += fmt.Sprintf(", %v", step())
	}
	return trace + fmt.Sprintf(", new %x", rec.Tree().RootDigest())
}
