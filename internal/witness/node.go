package witness

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

// Wire messages. A witness node serves them through the ordinary
// transport server, so the fault harness, deadlines, and codec are all
// shared with the primary's own protocol traffic.

// SubmitRequest delivers one commitment from the publisher (or a
// relaying witness). Pub carries the publisher's key for first-use
// pinning; a pinned node ignores it unless it conflicts.
type SubmitRequest struct {
	Commit *forensics.Commitment
	Pub    []byte
}

// SubmitReply acknowledges a submission.
type SubmitReply struct{ OK bool }

// SnapshotPut ships the primary's latest checksummed checkpoint
// envelope (server.EncodeP2Snapshot bytes) with the head it was cut
// at. Witnesses keep only the newest accepted envelope per server.
type SnapshotPut struct {
	Server string
	Ctr    uint64
	Root   digest.Digest
	Data   []byte
}

// SnapshotReply acknowledges a snapshot.
type SnapshotReply struct{ OK bool }

// LatestRequest asks a witness for its newest commitment for one
// server, plus any evidence it holds against that server.
type LatestRequest struct{ Server string }

// LatestReply answers a LatestRequest. Commit is nil when the witness
// has seen nothing yet.
type LatestReply struct {
	Commit   *forensics.Commitment
	Pub      []byte
	Evidence []*forensics.Evidence
}

// GossipRequest carries one node's full commitment windows to a peer;
// the peer merges them and replies with its own, so one exchange makes
// the pair's views converge — which is why a fork split across
// disjoint witness subsets is detected within one gossip round.
type GossipRequest struct {
	From    string
	Pubs    map[string][]byte
	Commits []*forensics.Commitment
	// Evidence carries the sender's bundles. Bundles are
	// self-authenticating (Evidence.Verify), so receiving one from a
	// lying peer is harmless — it either proves real equivocation or is
	// dropped. Shipping them matters because a log stores one
	// commitment per seq: the losing branch survives only inside the
	// bundle minted when the branches first met.
	Evidence []*forensics.Evidence
}

// GossipReply mirrors the receiving node's windows back.
type GossipReply struct {
	Pubs     map[string][]byte
	Commits  []*forensics.Commitment
	Evidence []*forensics.Evidence
}

// DialFunc opens a fresh connection to a peer (witness or primary).
// In-process deployments return a transport.Inproc; live ones wrap
// transport.Dial. The caller closes the returned Caller.
type DialFunc func() (transport.Caller, error)

// storedSnap is the newest validated checkpoint for one server.
type storedSnap struct {
	ctr  uint64
	root digest.Digest
	data []byte
}

// Node is one witness server: per-primary commitment logs, the newest
// validated checkpoint, gossip peers, and the evidence it has derived.
// All methods are safe for concurrent use.
type Node struct {
	name string

	mu       sync.Mutex
	logs     map[string]*Log
	snaps    map[string]*storedSnap
	peers    map[string]DialFunc
	evidence []*forensics.Evidence
}

// NewNode creates a witness named name, keeping DefaultWindow
// commitments per server.
func NewNode(name string) *Node {
	return &Node{
		name:  name,
		logs:  make(map[string]*Log),
		snaps: make(map[string]*storedSnap),
		peers: make(map[string]DialFunc),
	}
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Pin registers a server's public key ahead of any submission, closing
// the trust-on-first-use window for deployments that distribute keys
// out of band. Pinning after a different key is already in place is
// ignored here; the conflicting submission itself will be rejected.
func (n *Node) Pin(serverName string, pub []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.logs[serverName] == nil {
		n.logs[serverName] = NewLog(serverName, append([]byte(nil), pub...), DefaultWindow)
	}
}

// log returns (creating on demand) the commitment log for one server.
func (n *Node) log(serverName string) *Log {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.logs[serverName]
	if l == nil {
		l = NewLog(serverName, nil, DefaultWindow)
		n.logs[serverName] = l
	}
	return l
}

// AddPeer registers a gossip peer.
func (n *Node) AddPeer(name string, dial DialFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[name] = dial
}

// Handler returns the transport handler serving the witness wire
// protocol.
func (n *Node) Handler() transport.Handler {
	return func(req any) (any, error) {
		switch r := req.(type) {
		case *SubmitRequest:
			return n.handleSubmit(r)
		case *SnapshotPut:
			return n.handleSnapshot(r)
		case *LatestRequest:
			return n.handleLatest(r), nil
		case *GossipRequest:
			return n.handleGossip(r)
		default:
			return nil, fmt.Errorf("witness: unexpected request type %T", req)
		}
	}
}

func (n *Node) handleSubmit(r *SubmitRequest) (*SubmitReply, error) {
	if r.Commit == nil {
		return nil, errors.New("witness: submit without commitment")
	}
	//lint:ignore verifyflow Log.Append is the guarded boundary: it pins the server key on first contact and verifies every commitment signature against it before storing (witness.Log.Append), which callers cannot do earlier
	if err := n.absorb(r.Commit, r.Pub); err != nil {
		return nil, err
	}
	return &SubmitReply{OK: true}, nil
}

// absorb feeds one commitment into the right log and files any
// evidence it produces. Evidence is filed, not returned to the
// submitter: an equivocating primary learns nothing from its ack.
func (n *Node) absorb(c *forensics.Commitment, pub []byte) error {
	ev, err := n.log(c.Server).Append(c, pub)
	if err != nil {
		return err
	}
	if ev != nil {
		ev.Witnesses = []string{n.name}
		n.mu.Lock()
		n.evidence = forensics.MergeEvidence(n.evidence, ev)
		n.mu.Unlock()
	}
	return nil
}

// handleSnapshot validates and stores a checkpoint envelope. The bytes
// come from the primary a witness exists to distrust, and the sender
// computes the envelope's checksum, so decoding verifies the frame but
// relies on the body decoder alone (server.DecodeP2Snapshot: every
// count bounded by the bytes behind it, vdb.RestoreDB re-checking every
// tree). The restored database must reproduce exactly the declared
// (ctr, root) — a witness never stores a checkpoint it could not vouch
// for at promotion time.
func (n *Node) handleSnapshot(r *SnapshotPut) (*SnapshotReply, error) {
	snap, err := server.DecodeP2Snapshot(bytes.NewReader(r.Data))
	if err != nil {
		return nil, fmt.Errorf("witness: reject snapshot for %q: %w", r.Server, err)
	}
	db, err := vdb.RestoreDB(snap.DB)
	if err != nil {
		return nil, fmt.Errorf("witness: reject snapshot for %q: %w", r.Server, err)
	}
	ctr, root := db.Head()
	if ctr != r.Ctr || root != r.Root {
		return nil, fmt.Errorf("witness: snapshot for %q restores to (ctr %d, root %s), declared (ctr %d, root %s)",
			r.Server, ctr, root.Short(), r.Ctr, r.Root.Short())
	}
	n.mu.Lock()
	old := n.snaps[r.Server]
	if old == nil || r.Ctr >= old.ctr {
		n.snaps[r.Server] = &storedSnap{ctr: r.Ctr, root: r.Root, data: append([]byte(nil), r.Data...)}
	}
	n.mu.Unlock()
	return &SnapshotReply{OK: true}, nil
}

func (n *Node) handleLatest(r *LatestRequest) *LatestReply {
	l := n.log(r.Server)
	reply := &LatestReply{Commit: l.Latest(), Pub: l.Public()}
	n.mu.Lock()
	for _, ev := range n.evidence {
		if ev.Server == r.Server {
			reply.Evidence = append(reply.Evidence, ev)
		}
	}
	n.mu.Unlock()
	return reply
}

func (n *Node) handleGossip(r *GossipRequest) (*GossipReply, error) {
	for _, c := range r.Commits {
		if c == nil {
			continue
		}
		// A peer relaying garbage (bad signature, key conflict) is its
		// own problem; drop the entry and keep merging the rest.
		//lint:ignore verifyflow Log.Append is the guarded boundary: it verifies every commitment signature against the pinned server key before storing
		_ = n.absorb(c, r.Pubs[c.Server])
	}
	n.mergeEvidence(r.Evidence)
	reply := &GossipReply{}
	reply.Commits, reply.Pubs = n.export()
	reply.Evidence = n.Evidence()
	return reply, nil
}

// mergeEvidence files peer-supplied bundles that verify on their own.
func (n *Node) mergeEvidence(evs []*forensics.Evidence) {
	for _, ev := range evs {
		if ev == nil || ev.Verify() != nil {
			continue
		}
		n.mu.Lock()
		n.evidence = forensics.MergeEvidence(n.evidence, ev)
		n.mu.Unlock()
	}
}

// export snapshots every log's window for gossip.
func (n *Node) export() ([]*forensics.Commitment, map[string][]byte) {
	n.mu.Lock()
	logs := make([]*Log, 0, len(n.logs))
	for _, l := range n.logs {
		logs = append(logs, l)
	}
	n.mu.Unlock()
	var commits []*forensics.Commitment
	pubs := make(map[string][]byte)
	for _, l := range logs {
		commits = append(commits, l.Window()...)
		if pub := l.Public(); pub != nil {
			pubs[l.Server()] = pub
		}
	}
	return commits, pubs
}

// GossipOnce runs one push-pull exchange with every registered peer.
// Per-peer failures are collected, not fatal: gossip is best-effort
// and the next round retries.
func (n *Node) GossipOnce() error {
	n.mu.Lock()
	peers := make(map[string]DialFunc, len(n.peers))
	for name, dial := range n.peers {
		peers[name] = dial
	}
	n.mu.Unlock()

	commits, pubs := n.export()
	evidence := n.Evidence()
	var errs []error
	for name, dial := range peers {
		caller, err := dial()
		if err != nil {
			errs = append(errs, fmt.Errorf("witness %s: dial peer %s: %w", n.name, name, err))
			continue
		}
		resp, err := caller.Call(&GossipRequest{From: n.name, Pubs: pubs, Commits: commits, Evidence: evidence})
		caller.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("witness %s: gossip with %s: %w", n.name, name, err))
			continue
		}
		reply, ok := resp.(*GossipReply)
		if !ok {
			errs = append(errs, fmt.Errorf("witness %s: peer %s answered %T to gossip", n.name, name, resp))
			continue
		}
		for _, c := range reply.Commits {
			if c == nil {
				continue
			}
			//lint:ignore verifyflow Log.Append is the guarded boundary: it verifies every commitment signature against the pinned server key before storing
			_ = n.absorb(c, reply.Pubs[c.Server])
		}
		n.mergeEvidence(reply.Evidence)
	}
	return errors.Join(errs...)
}

// Evidence returns a copy of every evidence bundle this node holds.
func (n *Node) Evidence() []*forensics.Evidence {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*forensics.Evidence(nil), n.evidence...)
}

// Latest returns the node's newest commitment for one server (nil when
// none).
func (n *Node) Latest(serverName string) *forensics.Commitment {
	return n.log(serverName).Latest()
}

// StoredSnapshot returns the newest validated checkpoint for one
// server (ok=false when none has been shipped).
func (n *Node) StoredSnapshot(serverName string) (data []byte, ctr uint64, root digest.Digest, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.snaps[serverName]
	if s == nil {
		return nil, 0, digest.Zero, false
	}
	return s.data, s.ctr, s.root, true
}
