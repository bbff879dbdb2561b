package vdb

import (
	"fmt"

	"trustedcvs/internal/digest"
)

// Session is a fully verified single-user session against a local DB:
// it keeps the client-side trusted root digest and checks every
// operation's VO, answer, and root transition. This is exactly the
// single-user authenticated-publishing scheme the paper builds on
// (Section 2.2.3, citing [2]) — sufficient alone only when there is
// one user, and the building block the multi-user protocols extend.
//
// Session implements the Doer pattern used by internal/cvs.
type Session struct {
	db   *DB
	root digest.Digest
}

// NewSession opens a verified session on db. The client must know the
// current root (for a fresh database that is digest.Empty(), "common
// knowledge" in the paper's initialization).
func NewSession(db *DB) *Session {
	return &Session{db: db, root: db.Root()}
}

// Do applies op on the server and verifies the transition before
// adopting the new root.
func (s *Session) Do(op Op) (any, error) {
	ansBytes, vo, err := s.db.Apply(op)
	if err != nil {
		return nil, err
	}
	newRoot, err := Verify(op, ansBytes, vo, s.root)
	if err != nil {
		return nil, fmt.Errorf("vdb: session verification: %w", err)
	}
	s.root = newRoot
	ans, err := DecodeAnswer(ansBytes)
	if err != nil {
		return nil, err
	}
	return ans, nil
}
