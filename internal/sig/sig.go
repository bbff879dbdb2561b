// Package sig provides the digital-signature substrate for Trusted CVS.
//
// The paper assumes "the existence of a public key infrastructure, for
// example as in [RFC 2459]"; the only property any protocol relies on
// is that a signature by user i over a message cannot be forged by the
// server. We substitute Ed25519 key pairs distributed out of band via a
// Ring (see DESIGN.md §4). Protocol I signs database states; Protocol
// III signs epoch summaries.
package sig

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"sort"

	"trustedcvs/internal/digest"
)

// UserID identifies a user (agent) in the system. The server is not a
// user and has no ID. GenesisID tags the initial database state in the
// Protocol II/III state graph; no real user may use it.
type UserID uint32

// GenesisID is the reserved pseudo-user that "performed" the transition
// into the initial state D0.
const GenesisID UserID = 0xFFFFFFFF

func (u UserID) String() string {
	if u == GenesisID {
		return "user(genesis)"
	}
	return fmt.Sprintf("user(%d)", u)
}

// Signature is a detached Ed25519 signature.
type Signature []byte

// Signer holds a user's private key and can sign digests.
type Signer struct {
	id   UserID
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewSignerFrom generates a key pair from the given entropy source.
// Tests and deterministic simulations pass a seeded reader.
func NewSignerFrom(id UserID, r io.Reader) (*Signer, error) {
	if id == GenesisID {
		return nil, errors.New("sig: GenesisID is reserved and cannot sign")
	}
	pub, priv, err := ed25519.GenerateKey(r)
	if err != nil {
		return nil, fmt.Errorf("sig: generate key for %v: %w", id, err)
	}
	return &Signer{id: id, priv: priv, pub: pub}, nil
}

// ID returns the signer's user ID.
func (s *Signer) ID() UserID { return s.id }

// Sign signs a digest.
func (s *Signer) Sign(d digest.Digest) Signature {
	return Signature(ed25519.Sign(s.priv, d[:]))
}

// Ring is the public-key directory: every user's public key, known to
// all users (and to the server, which gains nothing from it). It stands
// in for the paper's PKI.
type Ring struct {
	keys map[UserID]ed25519.PublicKey
}

// NewRing builds a ring from the given signers' public halves.
func NewRing(signers ...*Signer) *Ring {
	r := &Ring{keys: make(map[UserID]ed25519.PublicKey, len(signers))}
	for _, s := range signers {
		r.keys[s.id] = s.pub
	}
	return r
}

// Users returns the registered user IDs in ascending order.
func (r *Ring) Users() []UserID {
	ids := make([]UserID, 0, len(r.keys))
	for id := range r.keys {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ErrUnknownUser is returned when verifying a signature attributed to a
// user with no registered key.
var ErrUnknownUser = errors.New("sig: unknown user")

// ErrBadSignature is returned when a signature does not verify. In
// protocol terms this means the sig the server presented is not
// "legitimate" (Protocol I, step 4) and the server has deviated.
var ErrBadSignature = errors.New("sig: signature verification failed")

// Verify checks that sig is user id's signature over d.
func (r *Ring) Verify(id UserID, d digest.Digest, s Signature) error {
	pub, ok := r.keys[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownUser, id)
	}
	if !ed25519.Verify(pub, d[:], s) {
		return fmt.Errorf("%w: by %v over %s", ErrBadSignature, id, d.Short())
	}
	return nil
}
