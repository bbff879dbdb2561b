package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
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
//	gob payload | 32-byte digest.DomainSnapshot footer
//
// A crash mid write leaves a file that fails the length or footer
// check; recovery then falls back to the previous generation instead
// of silently restoring garbage — which, for this system, would not
// just corrupt data but raise deviation alarms on every running
// client.
const snapMagic = "TCVSSNAP1\n"

// maxSnapshotBytes bounds the payload length a snapshot header may
// declare.
const maxSnapshotBytes = 1 << 30

// A snapshot's session table caches handler responses behind an
// interface-typed field (transport.OpOutcome.Resp), so gob — which the
// snapshot payload still uses; the wire and both journals do not —
// needs the concrete response types a handler can return registered.
// The names gob derives are the ones the previous binaries wrote.
func init() {
	gob.Register(&core.OpResponseI{})
	gob.Register(&core.OpResponseII{})
	gob.Register(&core.OpResponseForest{})
	gob.Register(&core.BackupsResponse{})
	gob.Register(&core.ContentResponse{})
	gob.Register(&core.OKResponse{})
	gob.Register(&core.RiderResponse{})
}

// ErrNoSnapshot reports that no snapshot generation exists on disk at
// all — a first boot, as opposed to a boot over corrupt checkpoints.
var ErrNoSnapshot = errors.New("server: no snapshot on disk")

// encodeSnapshot gob-encodes snap into the checksummed envelope.
func encodeSnapshot(w io.Writer, snap any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return fmt.Errorf("server: encode snapshot: %w", err)
	}
	return durable.WriteEnvelope(w, snapMagic, digest.DomainSnapshot, buf.Bytes())
}

// decodeSnapshot verifies one snapshot envelope and gob-decodes its
// payload into snap.
func decodeSnapshot(r io.Reader, snap any) error {
	payload, err := durable.ReadEnvelope(r, snapMagic, digest.DomainSnapshot, maxSnapshotBytes)
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(snap); err != nil {
		return fmt.Errorf("server: decode snapshot: %w", err)
	}
	return nil
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
	Sessions *transport.SessionsSnapshot
	// Metas is the per-shard protocol bookkeeping of a forest server
	// (one entry per shard). Nil on a single-tree server, keeping N=1
	// snapshots gob-identical to pre-forest ones.
	Metas []proto2.MetaState
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
	if p2srv.inner.Forest() {
		dbAt, metas, err := p2srv.inner.CheckpointForest()
		if err != nil {
			return nil, err
		}
		return &P2Snapshot{
			DB:    dbAt.Snapshot(),
			Store: storeSnap,
			Metas: metas,
		}, nil
	}
	dbAt, lastUser := p2srv.inner.Checkpoint()
	return &P2Snapshot{
		DB:       dbAt.Snapshot(),
		LastUser: lastUser,
		Store:    storeSnap,
	}, nil
}

// EncodeP2Snapshot writes snap in the checksummed envelope.
func EncodeP2Snapshot(w io.Writer, snap *P2Snapshot) error {
	return encodeSnapshot(w, snap)
}

// DecodeP2Snapshot reads and verifies one Protocol II snapshot.
func DecodeP2Snapshot(r io.Reader) (*P2Snapshot, error) {
	var snap P2Snapshot
	if err := decodeSnapshot(r, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
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
	if len(snap.Metas) > 0 {
		inner, err := proto2.NewForestServerAt(db, snap.Metas)
		if err != nil {
			return nil, nil, err
		}
		return &p2{inner: inner}, store, nil
	}
	if db.Shards() > 1 {
		return nil, nil, fmt.Errorf("server: forest snapshot (%d shards) has no per-shard metas", db.Shards())
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

// P3Snapshot bundles a Protocol III deployment's full state: the
// database, the epoch machinery (including stored signed backups), and
// the content store.
type P3Snapshot struct {
	DB    *vdb.DBSnapshot
	State proto3.ServerState
	Store *cvs.StoreSnapshot
}

// SaveP3 writes a Protocol III server's full state.
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
	return encodeSnapshot(w, &P3Snapshot{
		DB:    dbAt.Snapshot(),
		State: state,
		Store: storeSnap,
	})
}

// LoadP3 restores a Protocol III server and content store.
func LoadP3(r io.Reader) (Server, *cvs.Store, error) {
	var snap P3Snapshot
	if err := decodeSnapshot(r, &snap); err != nil {
		return nil, nil, err
	}
	db, err := vdb.RestoreDB(snap.DB)
	if err != nil {
		return nil, nil, err
	}
	store, err := cvs.RestoreStore(snap.Store)
	if err != nil {
		return nil, nil, err
	}
	return &p3{inner: proto3.NewServerFromState(db, snap.State)}, store, nil
}
