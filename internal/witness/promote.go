package witness

import (
	"bytes"
	"fmt"

	"trustedcvs/internal/cvs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
)

// Promotion is a witness turned primary: the restored protocol server,
// content store, and session table, plus the head the checkpoint was
// cut at. The caller wires these into a transport (they carry no
// network state) and hands clients the new endpoint; the restored
// session table is what makes the cut exactly-once — a client retry
// that was in flight when the old primary died replays its cached
// outcome instead of double-applying.
type Promotion struct {
	Server   server.Server
	Store    *cvs.Store
	Sessions *transport.SessionTable
	Ctr      uint64
	Root     [32]byte
}

// Promote rebuilds a primary from the node's stored checkpoint for the
// named server. The envelope's checksum frame was verified at storage
// time and is verified again here (the bytes sat in memory; promotion
// is exactly the wrong moment to start trusting them), and the
// restored database must reproduce the head the checkpoint declared.
//
// The promoted server runs under a NEW identity: the old primary's
// commitment stream dies with it, because a promoted witness that
// continued the old stream would be indistinguishable from an
// equivocating primary. Callers create a fresh Identity and Publisher
// for the promoted node.
func Promote(n *Node, serverName string) (*Promotion, error) {
	data, ctr, root, ok := n.StoredSnapshot(serverName)
	if !ok {
		return nil, fmt.Errorf("witness %s: no checkpoint stored for %q; cannot promote", n.name, serverName)
	}
	snap, err := server.DecodeP2Snapshot(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("witness %s: promote %q: %w", n.name, serverName, err)
	}
	srv, store, sessions, err := server.RestoreP2(snap)
	if err != nil {
		return nil, fmt.Errorf("witness %s: promote %q: %w", n.name, serverName, err)
	}
	gotCtr, gotRoot := srv.DB().Head()
	if gotCtr != ctr || gotRoot != root {
		return nil, fmt.Errorf("witness %s: promote %q: checkpoint restores to (ctr %d, root %s), stored head was (ctr %d, root %s)",
			n.name, serverName, gotCtr, gotRoot.Short(), ctr, root.Short())
	}
	// Cross-check against the commitment log: if the primary committed a
	// different root for this ctr than the checkpoint reproduces, the
	// checkpoint itself is a fork artifact and must not be promoted.
	if c := n.log(serverName).At(ctr); c != nil && c.Root != root {
		return nil, fmt.Errorf("witness %s: promote %q: checkpoint root %s contradicts committed root %s at ctr %d",
			n.name, serverName, root.Short(), c.Root.Short(), ctr)
	}
	return &Promotion{Server: srv, Store: store, Sessions: sessions, Ctr: gotCtr, Root: gotRoot}, nil
}
