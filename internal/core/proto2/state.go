package proto2

import (
	"encoding/binary"
	"fmt"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/wire"
)

// MarshalState serializes the user's protocol state — the
// constant-size local state of desideratum 5 — persisted by the CLI
// between invocations and by the epoch auditor in its cursor. Registers
// nest as they travel on the wire (tag + body).
//
//	state = core.StateFormatII | id | k | sinceSync | Registers |
//	        initialState[32] | 00
//
// The 00 is the shard count of the retired sharded layout, which a
// single-tree user always wrote as zero.
func (u *User) MarshalState() ([]byte, error) {
	b := binary.AppendUvarint([]byte{core.StateFormatII}, uint64(u.id))
	b = binary.AppendUvarint(binary.AppendUvarint(b, u.k), u.sinceSync)
	b, err := wire.Append(b, u.regs)
	if err != nil {
		return nil, fmt.Errorf("proto2: marshal state: %w", err)
	}
	return append(append(b, u.initialState[:]...), 0), nil
}

// RestoreUser reconstructs a user from persisted state. A nonzero shard
// count is a forest user's state, refused with core.ErrStateFormat.
func RestoreUser(data []byte) (*User, error) {
	if len(data) == 0 || data[0] != core.StateFormatII {
		return nil, core.ErrStateFormat
	}
	r := binenc.NewReader(data[1:])
	u := &User{id: sig.UserID(r.Uint32()), k: r.Uvarint(), sinceSync: r.Uvarint()}
	u.regs = wire.ReadAs[core.Registers](r)
	copy(u.initialState[:], r.View(digest.Size))
	if r.Uvarint() != 0 {
		return nil, fmt.Errorf("%w: the state of a user of a sharded database", core.ErrStateFormat)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("proto2: restore state: %w", err)
	}
	if u.k == 0 {
		return nil, fmt.Errorf("proto2: restore state: zero sync period")
	}
	return u, nil
}
