package proto1

import (
	"encoding/binary"
	"fmt"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/sig"
)

// MarshalState serializes the user's protocol state: the counters of
// desideratum 5. Keys are NOT part of it — the caller owns key material
// and supplies the signer and ring again on restore.
//
//	core.StateFormatI | id | k | lctr | gctr | sinceSync    (uvarints)
func (u *User) MarshalState() ([]byte, error) {
	b := []byte{core.StateFormatI}
	for _, v := range [...]uint64{uint64(u.ID()), u.k, u.lctr, u.gctr, u.sinceSync} {
		b = binary.AppendUvarint(b, v)
	}
	return b, nil
}

// RestoreUser reconstructs a user from persisted counters plus the
// caller-held key material. The signer's identity must match the
// persisted state.
func RestoreUser(signer *sig.Signer, ring *sig.Ring, data []byte) (*User, error) {
	if len(data) == 0 || data[0] != core.StateFormatI {
		return nil, core.ErrStateFormat
	}
	r := binenc.NewReader(data[1:])
	id, k := sig.UserID(r.Uint32()), r.Uvarint()
	lctr, gctr, sinceSync := r.Uvarint(), r.Uvarint(), r.Uvarint()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("proto1: restore state: %w", err)
	}
	if id != signer.ID() {
		return nil, fmt.Errorf("proto1: state belongs to %v, signer is %v", id, signer.ID())
	}
	if k == 0 {
		return nil, fmt.Errorf("proto1: restore state: zero sync period")
	}
	u := NewUser(signer, ring, k)
	u.lctr, u.gctr, u.sinceSync = lctr, gctr, sinceSync
	return u, nil
}
