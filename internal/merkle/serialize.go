package merkle

import (
	"encoding/binary"
	"fmt"

	"trustedcvs/internal/binenc"
)

// Snapshot is the persistent form of a complete tree: the flat VO
// grammar of vobinary.go with nothing pruned, plus the record count.
// Unlike a plain key-value dump it preserves the exact node structure:
// B+-tree shape depends on insertion history, so only a structural
// snapshot restores the same root digest — which is what keeps
// restarted servers consistent with their clients' verified roots.
// Like a VO's, its bytes are never modified, so any number of trees may
// be restored from one Snapshot.
type Snapshot struct {
	size int
	vo   VO
}

// Snapshot captures the tree.
func (t *Tree) Snapshot() *Snapshot {
	s := &Snapshot{size: t.size}
	s.vo.size = binenc.UvarintLen(uint64(t.order)) + sizePruned(t.root, nil, &s.vo)
	s.vo.enc = appendPruned(binary.AppendUvarint(make([]byte, 0, s.vo.size), uint64(t.order)), t.root, nil)
	return s
}

// Restore rebuilds a tree from a snapshot and validates it the way a
// fully materialized tree is validated anywhere (snapshots may come
// from disk or the network): every shape VO.Tree or CheckInvariants
// refuses is refused here, a pruned subtree — the snapshot of a
// verifier's partial tree — among them, even at the root. The restored
// tree's root digest equals the original's, and its nodes' encodings are
// windows onto the snapshot's bytes, as a VO's tree's are onto the VO's.
// Its nodes are one slab, which the bytes of the snapshot already bound:
// a node replaced by a later write stays allocated until every node of
// the slab is.
func Restore(s *Snapshot) (*Tree, error) {
	if s == nil || s.size < 0 {
		return nil, fmt.Errorf("%w: no snapshot of a complete tree", ErrMalformedVO)
	}
	t, err := s.vo.Tree()
	if err != nil {
		return nil, err
	}
	t.size = s.size
	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("%w: restored tree invalid: %v", ErrMalformedVO, err)
	}
	return t, nil
}

// Append appends the snapshot to b:
//
//	snapshot = uvarint(records) uvarint(len) VO
func (s *Snapshot) Append(b []byte) []byte {
	return binenc.AppendBytes(binary.AppendUvarint(b, uint64(s.size)), s.vo.enc)
}

// ReadSnapshot reads what Append wrote into a private copy, so a tree
// restored from it pins nothing else of the file it came in. The record
// count is bounded by the bytes left (a record is at least its two
// length bytes), and the tree's bytes go through ViewVO's scan, which
// fails r on bytes outside the grammar and counts what Restore
// allocates; the shape is Restore's to check.
func ReadSnapshot(r *binenc.Reader) *Snapshot {
	s := &Snapshot{size: r.Count(2)}
	if err := s.vo.view(r.Bytes()); err != nil {
		r.Fail("%v", err)
	}
	return s
}
