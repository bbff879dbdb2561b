package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

// Snapshots travel in the durable envelope (durable.WriteEnvelope):
//
//	magic "TCVSSNAP1\n" | 8-byte big-endian payload length |
//	payload | 32-byte digest.DomainSnapshot footer
//
// A crash mid write leaves a file that fails the length or footer
// check; recovery then falls back to the previous generation instead
// of silently restoring garbage — which, for this system, would not
// just corrupt data but raise deviation alarms on every running
// client. The payload is a format byte and a binenc body, each part
// written and read by the package that owns it (vdb, cvs and transport
// AppendSnapshot):
//
//	0x8C | db | store | lastUser | 00 | sessions
//
// The 00 is the meta count of the retired sharded layout, which a
// single tree always wrote as zero; a nonzero one, or a sharded db
// section (vdb.ErrForestSnapshot), is refused with ErrSnapshotFormat.
//
// The bytes may come from a peer — a witness reads the primary's — so
// every count is bounded by the bytes behind it and nothing is trusted
// before RestoreP2 has re-checked it. The format byte lies in
// 0x80–0xF7, where no gob stream — the payload of the earliest
// binaries — can start. Retired format bytes are refused like gob:
// 0x85 was this layout while the store section still carried a
// per-path revision index, and 0x86 and 0x8D were Protocol III
// snapshots, which no binary restores any more.
const (
	snapMagic    = "TCVSSNAP1\n"
	snapFormatP2 = 0x8C
)

// maxSnapshotBytes bounds the payload length a snapshot header may
// declare.
const maxSnapshotBytes = 1 << 30

// errNoSnapshot reports that no snapshot generation exists on disk at
// all — a first boot, as opposed to a boot over corrupt checkpoints.
var errNoSnapshot = errors.New("server: no snapshot on disk")

// ErrSnapshotFormat is returned for a snapshot whose envelope verifies
// but whose payload is not in this binary's format: written by an
// older binary, or for Protocol III. It is refused, never converted;
// restore it with the binary that wrote it.
var ErrSnapshotFormat = errors.New("server: snapshot is not in this binary's format; restore it with the binary that wrote it")

// P2Snapshot bundles everything a Protocol II deployment needs to
// survive a restart: the authenticated database (with its operation
// counter), the protocol's last-user marker, the content store, and
// the session table's cached per-session outcomes. Restoring
// reproduces the exact root digest, so running clients — whose
// registers commit to that root — continue seamlessly, and restored
// session state lets their in-flight retries replay instead of
// double-applying.
type P2Snapshot struct {
	DB       *vdb.DBSnapshot
	LastUser sig.UserID
	Store    *cvs.StoreSnapshot
	Sessions *transport.SessionsSnapshot
}

// CheckpointP2 cuts a Protocol II server's state. With a session
// table it is a consistent cut: the capture runs inside the table's
// freeze (transport.SessionTable.Freeze), so nothing is mid-application
// and every acknowledged op is inside it. The capture itself is O(1)
// on the live structures (the database walk runs on a copy-on-write
// fork during encoding), so the freeze stalls dispatch only briefly. A
// nil table captures no sessions.
func CheckpointP2(srv Server, store *cvs.Store, sessions *transport.SessionTable) (*P2Snapshot, error) {
	p2srv, ok := unhook(srv).(*p2)
	if !ok {
		return nil, fmt.Errorf("server: CheckpointP2 needs an honest Protocol II server, got %v", srv.Protocol())
	}
	snap := &P2Snapshot{Sessions: &transport.SessionsSnapshot{}}
	var err error
	// The database first: content is stored before the op that names
	// it, so a store captured after the database holds the blob of
	// every op in it, even for a request no session table quiesced.
	capture := func() {
		dbAt, lastUser := p2srv.inner.Checkpoint()
		snap.DB, snap.LastUser = dbAt.Snapshot(), lastUser
		snap.Store, err = store.Snapshot()
	}
	if sessions == nil {
		capture()
	} else {
		sessions.Freeze(func(ss *transport.SessionsSnapshot) { snap.Sessions = ss; capture() })
	}
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// EncodeP2Snapshot writes snap in the checksummed envelope.
func EncodeP2Snapshot(w io.Writer, snap *P2Snapshot) error {
	b := cvs.AppendSnapshot(vdb.AppendSnapshot([]byte{snapFormatP2}, snap.DB), snap.Store)
	b = append(binary.AppendUvarint(b, uint64(snap.LastUser)), 0)
	b, err := transport.AppendSnapshot(b, snap.Sessions)
	if err != nil {
		return fmt.Errorf("server: encode snapshot: %w", err)
	}
	return durable.WriteEnvelope(w, snapMagic, digest.DomainSnapshot, b)
}

// DecodeP2Snapshot reads and verifies one Protocol II snapshot.
func DecodeP2Snapshot(rd io.Reader) (*P2Snapshot, error) {
	payload, err := durable.ReadEnvelope(rd, snapMagic, digest.DomainSnapshot, maxSnapshotBytes)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot: %w", err)
	}
	if len(payload) == 0 || payload[0] != snapFormatP2 {
		return nil, ErrSnapshotFormat
	}
	r := binenc.NewReader(payload[1:])
	db, err := vdb.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	snap := &P2Snapshot{DB: db, Store: cvs.ReadSnapshot(r), LastUser: sig.UserID(r.Uint32())}
	if r.Uvarint() != 0 {
		return nil, fmt.Errorf("%w: per-shard metas of a sharded database", ErrSnapshotFormat)
	}
	snap.Sessions = transport.ReadSnapshot(r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("server: decode snapshot: %w", err)
	}
	return snap, nil
}

// RestoreP2 rebuilds the server, the content store and the session
// table from a decoded snapshot.
func RestoreP2(snap *P2Snapshot) (Server, *cvs.Store, *transport.SessionTable, error) {
	db, err := vdb.RestoreDB(snap.DB)
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := cvs.RestoreStore(snap.Store)
	if err != nil {
		return nil, nil, nil, err
	}
	sessions := transport.NewSessionTable()
	sessions.RestoreSessions(snap.Sessions)
	return &p2{inner: proto2.NewServerAt(db, snap.LastUser)}, store, sessions, nil
}

// loadNewest loads the newest verifiable snapshot generation: path
// first, then durable.PrevPath(path) if the current file is missing
// (crash between rotate and install) or fails verification (torn or
// rotted write). It returns the snapshot and the file it came from;
// the error wraps errNoSnapshot when no generation exists at all, and
// otherwise carries per-generation diagnostics.
func loadNewest(path string) (*P2Snapshot, string, error) {
	var errs []error
	missing := 0
	for _, cand := range []string{path, durable.PrevPath(path)} {
		f, err := os.Open(cand)
		if err != nil {
			if os.IsNotExist(err) {
				missing++
			}
			errs = append(errs, err)
			continue
		}
		snap, derr := DecodeP2Snapshot(f)
		f.Close()
		if derr == nil {
			return snap, cand, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", cand, derr))
	}
	if missing == 2 {
		return nil, "", fmt.Errorf("%w: %s", errNoSnapshot, path)
	}
	return nil, "", fmt.Errorf("server: no loadable snapshot generation: %w", errors.Join(errs...))
}
