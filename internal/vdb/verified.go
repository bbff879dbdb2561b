package vdb

import (
	"errors"

	"trustedcvs/internal/digest"
)

// Verified is the outcome of a replay that passed: the pre-state root
// the VO derived, the post-state root the replay computed, and the
// answer bytes the replay reproduced. Only the package's one replay
// makes one with its mark set, and only a Verifier's VerifyDerive
// hands it out (the package func VerifyDerive returns its bare
// digests), so a Verified in hand is proof that the server's answer
// met a replay. It is the one form
// in which a server answer reaches trusted state: core.Registers
// folds nothing else, and the protocol users decode their answers
// from it. The zero Verified, which any package can write, vouches
// for nothing: OK reports false, Answer refuses it and At makes no
// Head of it.
//
// The answer bytes are the caller's claimed bytes, not a copy: a
// Verified lives as long as the response it was made from.
type Verified struct {
	oldRoot, newRoot digest.Digest
	answer           []byte
	ok               bool
}

// errUnverified is Verified.Answer's refusal of a Verified no verifier
// made.
var errUnverified = errors.New("vdb: answer was not verified")

// OK reports whether a verifier made v.
func (v Verified) OK() bool { return v.ok }

// OldRoot is the root of the state the operation was applied to.
func (v Verified) OldRoot() digest.Digest { return v.oldRoot }

// NewRoot is the root of the state the operation produced.
func (v Verified) NewRoot() digest.Digest { return v.newRoot }

// Answer decodes the verified answer.
func (v Verified) Answer() (any, error) {
	if !v.ok {
		return nil, errUnverified
	}
	return DecodeAnswer(v.answer)
}

// At is v's post-state as the head of the history at global counter
// ctr, the counter the operation produced. The zero Verified gives the
// zero Head.
func (v Verified) At(ctr uint64) Head {
	if !v.ok {
		return Head{}
	}
	return Head{ctr: ctr, root: v.newRoot}
}

// A Head is a root a user verified through a replay, at the global
// counter its operation produced: what a witness cross-check compares
// the server's signed commitments against. Only Verified.At makes one
// with a counter; the zero Head, at counter 0, names no operation and
// is never compared.
type Head struct {
	ctr  uint64
	root digest.Digest
}

// Ctr is the global counter after the verified operation.
func (h Head) Ctr() uint64 { return h.ctr }

// Root is the verified root at Ctr.
func (h Head) Root() digest.Digest { return h.root }
