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

// shardStateMin is the smallest encoded shard: a genesis digest, a
// tagged Registers (two digests, three counters), a head counter and
// the pending flag.
const shardStateMin = 3*digest.Size + 6

// MarshalState serializes the user's protocol state — the
// constant-size local state of desideratum 5 (O(N) for a forest user,
// still workload-independent), persisted by the CLI between
// invocations and by the epoch auditor in its cursor. Registers nest as
// they travel on the wire (tag + body).
//
//	state = core.StateFormatII | id | k | sinceSync | Registers |
//	        initialState[32] | uvarint(n) n×shard
//	shard = genesis[32] | Registers | headCtr | bool(pending)
//	        [ pendingCtr | pendingRoot[32] ]
//
// A single-tree user has no shards; a forest user has at least two.
func (u *User) MarshalState() ([]byte, error) {
	b := binary.AppendUvarint([]byte{core.StateFormatII}, uint64(u.id))
	b = binary.AppendUvarint(binary.AppendUvarint(b, u.k), u.sinceSync)
	b, err := wire.Append(b, u.regs)
	if err != nil {
		return nil, fmt.Errorf("proto2: marshal state: %w", err)
	}
	b = binary.AppendUvarint(append(b, u.initialState[:]...), uint64(len(u.fshards)))
	for s := range u.fshards {
		fs := &u.fshards[s]
		if b, err = wire.Append(append(b, u.geneses[s][:]...), fs.regs); err != nil {
			return nil, fmt.Errorf("proto2: marshal state: %w", err)
		}
		b = binenc.AppendBool(binary.AppendUvarint(b, u.headCtrs[s]), fs.pending != nil)
		if p := fs.pending; p != nil {
			b = append(binary.AppendUvarint(b, p.ctr), p.root[:]...)
		}
	}
	return b, nil
}

// RestoreUser reconstructs a user from persisted state.
func RestoreUser(data []byte) (*User, error) {
	if len(data) == 0 || data[0] != core.StateFormatII {
		return nil, core.ErrStateFormat
	}
	r := binenc.NewReader(data[1:])
	u := &User{id: sig.UserID(r.Uint32()), k: r.Uvarint(), sinceSync: r.Uvarint()}
	u.regs = wire.ReadAs[core.Registers](r)
	copy(u.initialState[:], r.View(digest.Size))
	if n := r.Count(shardStateMin); n > 0 {
		u.geneses = make([]digest.Digest, n)
		u.fshards = make([]forestShard, n)
		u.headCtrs = make([]uint64, n)
		for s := range u.fshards {
			copy(u.geneses[s][:], r.View(digest.Size))
			u.fshards[s].regs = wire.ReadAs[core.Registers](r)
			u.headCtrs[s] = r.Uvarint()
			if r.Bool() {
				p := &pendingLeg{ctr: r.Uvarint()}
				copy(p.root[:], r.View(digest.Size))
				u.fshards[s].pending = p
			}
		}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("proto2: restore state: %w", err)
	}
	if u.k == 0 {
		return nil, fmt.Errorf("proto2: restore state: zero sync period")
	}
	if len(u.fshards) == 1 {
		return nil, fmt.Errorf("proto2: restore state: a 1-shard forest is not a valid state (single-tree users carry no shard list)")
	}
	return u, nil
}
