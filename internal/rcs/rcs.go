// Package rcs is the revision-content discipline of a CVS-like
// system: the content hash the authenticated revision records carry
// (HashContent) and the check every fetched revision must pass before
// it reaches a caller (CheckContent, whose Checked is the only content
// a checkout's Files takes). The blobs themselves live in
// internal/cvs's Store, one content-addressed map that holds every
// revision in full. Which blob is which revision of which path is a
// question only the authenticated database answers (internal/cvs's
// revision records), so there is no index beside the blobs to disagree
// with it. There is deliberately no delta chain either: every revision
// must stay fetchable in full by its hash, so a head + reverse-delta
// chain beside the blobs is a second copy that costs a diff per push.
// Delta compression, if wanted, belongs off the request path, where it
// would replace the full copies.
//
// Nothing stored is trusted. The authenticated layer (internal/vdb +
// internal/cvs) commits to content *hashes*; the store merely has to
// produce bytes that hash correctly, and a client always re-hashes
// what it receives. A malicious server that tampers with stored
// content can only cause detectable failures.
package rcs

import (
	"errors"
	"fmt"

	"trustedcvs/internal/digest"
)

// ErrCorrupt is returned when stored content does not match its
// recorded content hash — on an honest server this indicates storage
// corruption; under an adversary it is tampering.
var ErrCorrupt = errors.New("rcs: content does not match recorded hash")

// HashContent computes the content hash the authenticated revision
// records carry and clients verify after every checkout.
func HashContent(content []byte) digest.Digest {
	return digest.OfBytes(digest.DomainBlob, content)
}

// Checked is blob content that hashed to the authenticated hash it was
// checked against. CheckContent is the only maker of one with its mark
// set, so content a caller receives as Checked has met the check,
// whichever transfer path carried it. The zero Checked, which any
// package can write, is no content at all: Files.Add refuses it.
type Checked struct {
	content []byte
	ok      bool
}

// errUnchecked is Files.Add's refusal of a Checked CheckContent did
// not make.
var errUnchecked = errors.New("rcs: content was not checked")

// CheckContent verifies fetched blob bytes against the authenticated
// hash the client pinned for that revision, and on success returns
// them as Checked. Every path that hands content to a caller goes
// through it: internal/cvs's checkout result is a Files.
func CheckContent(content []byte, want digest.Digest) (Checked, error) {
	if HashContent(content) != want {
		return Checked{}, fmt.Errorf("rcs: content does not match authenticated hash %s", want.Short())
	}
	return Checked{content: content, ok: true}, nil
}

// Files is checked content by path, the result of a checkout. Content
// goes in only as Checked; Map hands the whole set to the caller.
type Files struct{ m map[string][]byte }

// NewFiles returns an empty set with room for n paths.
func NewFiles(n int) Files { return Files{m: make(map[string][]byte, n)} }

// Add puts c under path. It refuses, and adds nothing, a Checked
// CheckContent did not make.
func (f Files) Add(path string, c Checked) error {
	if !c.ok {
		return errUnchecked
	}
	f.m[path] = c.content
	return nil
}

// Map returns the set as a map (not a copy); nil for the zero Files.
func (f Files) Map() map[string][]byte { return f.m }
