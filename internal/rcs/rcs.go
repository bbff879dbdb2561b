// Package rcs is the revision-content discipline of a CVS-like
// system: the content hash the authenticated revision records carry
// (HashContent) and the check every fetched revision must pass before
// it reaches a caller (CheckContent). The blobs themselves live in
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

// CheckContent verifies fetched blob bytes against the authenticated
// hash the client pinned for that revision. Every transfer path that
// hands content to a caller must run fetched bytes through this check
// (tcvs-lint's verifyflow pass treats it as the sanitizer for blob
// content).
func CheckContent(content []byte, want digest.Digest) error {
	if HashContent(content) != want {
		return fmt.Errorf("rcs: content does not match authenticated hash %s", want.Short())
	}
	return nil
}
