package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
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
// AppendSnapshot; an EpochBackup nests as on the wire):
//
//	P2 = 0x8C | db | store | lastUser | 00 | sessions
//	P3 = 0x8D | db | store | lastUser | epoch | uvarint(n) n×EpochBackup
//
// P2's 00 is the meta count of the retired sharded layout, which a
// single tree always wrote as zero; a nonzero one, or a sharded db
// section (vdb.ErrForestSnapshot), is refused with ErrSnapshotFormat.
//
// The bytes may come from a peer — a witness reads the primary's — so
// every count is bounded by the bytes behind it and nothing is trusted
// before RestoreP2 has re-checked it. The format bytes lie in
// 0x80–0xF7, where no gob stream — the payload of the earliest
// binaries — can start; 0x85 and 0x86 were these two layouts while the
// store section still carried a per-path revision index.
const (
	snapMagic    = "TCVSSNAP1\n"
	snapFormatP2 = 0x8C
	snapFormatP3 = 0x8D
)

// maxSnapshotBytes bounds the payload length a snapshot header may
// declare.
const maxSnapshotBytes = 1 << 30

// ErrNoSnapshot reports that no snapshot generation exists on disk at
// all — a first boot, as opposed to a boot over corrupt checkpoints.
var ErrNoSnapshot = errors.New("server: no snapshot on disk")

// ErrSnapshotFormat is returned for a snapshot whose envelope verifies
// but whose payload is not in this binary's format: written by an
// older binary, or for the other protocol. It is refused, never
// converted; restore it with the binary that wrote it.
var ErrSnapshotFormat = errors.New("server: snapshot is not in this binary's format; restore it with the binary that wrote it")

// readPayload verifies one snapshot envelope and returns a Reader over
// the body behind format.
func readPayload(r io.Reader, format byte) (*binenc.Reader, error) {
	payload, err := durable.ReadEnvelope(r, snapMagic, digest.DomainSnapshot, maxSnapshotBytes)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot: %w", err)
	}
	if len(payload) == 0 || payload[0] != format {
		return nil, ErrSnapshotFormat
	}
	return binenc.NewReader(payload[1:]), nil
}

// P2Snapshot bundles everything a Protocol II deployment needs to
// survive a restart: the authenticated database (with its operation
// counter), the protocol's last-user marker, the content store, and —
// when the transport runs a session table — the cached per-session
// outcomes. Restoring reproduces the exact root digest, so running
// clients — whose registers commit to that root — continue seamlessly,
// and restored session state lets their in-flight retries replay
// instead of double-applying.
type P2Snapshot struct {
	DB       *vdb.DBSnapshot
	LastUser sig.UserID
	Store    *cvs.StoreSnapshot
	// Sessions is empty unless the caller froze a session table.
	Sessions *transport.SessionsSnapshot
}

// CheckpointP2 captures a Protocol II server's state. The capture
// itself is O(1) on the live structures (the database walk runs on a
// copy-on-write fork during encoding), so calling it inside a
// transport quiesce window — transport.SessionTable.Freeze — is cheap;
// that is how (db, sessions) become one consistent cut.
func CheckpointP2(srv Server, store *cvs.Store) (*P2Snapshot, error) {
	p2srv, ok := unhook(srv).(*p2)
	if !ok {
		return nil, fmt.Errorf("server: CheckpointP2 needs an honest Protocol II server, got %v", srv.Protocol())
	}
	storeSnap, err := store.Snapshot()
	if err != nil {
		return nil, err
	}
	dbAt, lastUser := p2srv.inner.Checkpoint()
	return &P2Snapshot{
		DB:       dbAt.Snapshot(),
		LastUser: lastUser,
		Store:    storeSnap,
		Sessions: &transport.SessionsSnapshot{},
	}, nil
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
	r, err := readPayload(rd, snapFormatP2)
	if err != nil {
		return nil, err
	}
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

// RestoreP2 rebuilds the server and content store from a decoded
// snapshot. Session state, if present, is the caller's to feed into
// its transport table (transport.SessionTable.RestoreSessions).
func RestoreP2(snap *P2Snapshot) (Server, *cvs.Store, error) {
	db, err := vdb.RestoreDB(snap.DB)
	if err != nil {
		return nil, nil, err
	}
	store, err := cvs.RestoreStore(snap.Store)
	if err != nil {
		return nil, nil, err
	}
	return &p2{inner: proto2.NewServerAt(db, snap.LastUser)}, store, nil
}

// SaveP2 writes a Protocol II server's full state (without session
// state — use CheckpointP2 + EncodeP2Snapshot under a transport freeze
// for that). srv must be an honest Protocol II server created by
// NewP2.
func SaveP2(w io.Writer, srv Server, store *cvs.Store) error {
	snap, err := CheckpointP2(srv, store)
	if err != nil {
		return err
	}
	return EncodeP2Snapshot(w, snap)
}

// LoadP2 restores a Protocol II server and content store.
func LoadP2(r io.Reader) (Server, *cvs.Store, error) {
	snap, err := DecodeP2Snapshot(r)
	if err != nil {
		return nil, nil, err
	}
	return RestoreP2(snap)
}

// LoadP2Auto loads the newest verifiable Protocol II snapshot
// generation: path first, then path+".1" if the current file is
// missing (crash between rotate and install) or fails verification
// (torn or rotted write). It returns the snapshot and the file it came
// from; the error wraps ErrNoSnapshot when no generation exists at
// all, and otherwise carries per-generation diagnostics.
func LoadP2Auto(path string) (*P2Snapshot, string, error) {
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
		return nil, "", fmt.Errorf("%w: %s", ErrNoSnapshot, path)
	}
	return nil, "", fmt.Errorf("server: no loadable snapshot generation: %w", errors.Join(errs...))
}

// SaveP3 writes a Protocol III server's full state: the database, the
// content store, and the epoch machinery including the stored signed
// backups.
func SaveP3(w io.Writer, srv Server, store *cvs.Store) error {
	p3srv, ok := unhook(srv).(*p3)
	if !ok {
		return fmt.Errorf("server: SaveP3 needs an honest Protocol III server, got %v", srv.Protocol())
	}
	storeSnap, err := store.Snapshot()
	if err != nil {
		return err
	}
	dbAt, state := p3srv.inner.Checkpoint()
	b := cvs.AppendSnapshot(vdb.AppendSnapshot([]byte{snapFormatP3}, dbAt.Snapshot()), storeSnap)
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(state.LastUser)), state.Epoch)
	b = binary.AppendUvarint(b, uint64(len(state.Backups)))
	for _, bk := range state.Backups {
		if b, err = wire.Append(b, bk); err != nil {
			return fmt.Errorf("server: encode snapshot: %w", err)
		}
	}
	return durable.WriteEnvelope(w, snapMagic, digest.DomainSnapshot, b)
}

// LoadP3 restores a Protocol III server and content store.
func LoadP3(rd io.Reader) (Server, *cvs.Store, error) {
	r, err := readPayload(rd, snapFormatP3)
	if err != nil {
		return nil, nil, err
	}
	dbSnap, err := vdb.ReadSnapshot(r)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	storeSnap := cvs.ReadSnapshot(r)
	state := proto3.ServerState{LastUser: sig.UserID(r.Uint32()), Epoch: r.Uvarint()}
	state.Backups = make([]*core.EpochBackup, r.Count(2))
	for i := range state.Backups {
		state.Backups[i] = wire.ReadAs[*core.EpochBackup](r)
	}
	if err := r.Close(); err != nil {
		return nil, nil, fmt.Errorf("server: decode snapshot: %w", err)
	}
	db, err := vdb.RestoreDB(dbSnap)
	if err != nil {
		return nil, nil, err
	}
	store, err := cvs.RestoreStore(storeSnap)
	if err != nil {
		return nil, nil, err
	}
	return &p3{inner: proto3.NewServerFromState(db, state)}, store, nil
}
