package proto3

import (
	"encoding/binary"
	"fmt"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/wire"
)

// MarshalState serializes the user's protocol state: registers, epoch
// bookkeeping, and the pending (not yet uploaded) epoch backup. Key
// material stays with the caller, as in proto1. Registers and the
// backup nest as they travel on the wire (tag + body).
//
//	core.StateFormatIII | id | Registers | initialState[32] | epoch |
//	bool(epochKnown) | checkedUpTo | bool(pending) [ EpochBackup ]
func (u *User) MarshalState() ([]byte, error) {
	b := binary.AppendUvarint([]byte{core.StateFormatIII}, uint64(u.ID()))
	b, err := wire.Append(b, u.regs)
	if err != nil {
		return nil, fmt.Errorf("proto3: marshal state: %w", err)
	}
	b = binary.AppendUvarint(append(b, u.initialState[:]...), u.epoch)
	b = binary.AppendUvarint(binenc.AppendBool(b, u.epochKnown), u.checkedUpTo)
	if b = binenc.AppendBool(b, u.pending != nil); u.pending != nil {
		if b, err = wire.Append(b, u.pending); err != nil {
			return nil, fmt.Errorf("proto3: marshal state: %w", err)
		}
	}
	return b, nil
}

// RestoreUser reconstructs a user from persisted state plus the
// caller-held key material.
func RestoreUser(signer *sig.Signer, ring *sig.Ring, data []byte) (*User, error) {
	if len(data) == 0 || data[0] != core.StateFormatIII {
		return nil, core.ErrStateFormat
	}
	r := binenc.NewReader(data[1:])
	id := sig.UserID(r.Uint32())
	u := &User{signer: signer, ring: ring, users: ring.Users(), regs: wire.ReadAs[core.Registers](r)}
	copy(u.initialState[:], r.View(digest.Size))
	u.epoch, u.epochKnown, u.checkedUpTo = r.Uvarint(), r.Bool(), r.Uvarint()
	if r.Bool() {
		u.pending = wire.ReadAs[*core.EpochBackup](r)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("proto3: restore state: %w", err)
	}
	if id != signer.ID() {
		return nil, fmt.Errorf("proto3: state belongs to %v, signer is %v", id, signer.ID())
	}
	return u, nil
}
