package trustedcvs

import (
	"fmt"
	"path/filepath"
	"time"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/audit"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/deploy"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/workspace"
)

// ClusterConfig configures a cluster: one untrusted server plus a
// fixed user population.
type ClusterConfig struct {
	// Protocol selects Protocol I, II or III (default II).
	Protocol Protocol
	// Users is the population size (required, >= 1).
	Users int
	// SyncEvery is k, the synchronization period of Protocols I/II
	// (default 16).
	SyncEvery uint64
	// JournalCap enables per-user transition journals of this
	// capacity (Protocols I/II) for post-detection fault localization
	// — see Cluster.Forensics.
	JournalCap int
	// Malice makes the server misbehave (demos and tests).
	Malice Malice
	// Witnesses runs this many in-process witness nodes in a full
	// gossip mesh. The server publishes signed root commitments to all
	// of them, and every client cross-checks the roots it verified
	// against the witness quorum before acknowledging a sync round; a
	// divergence is a detection (witness-divergence) backed by a signed
	// evidence bundle. 0 disables witnessing.
	Witnesses int
	// CommitEvery is the commitment cadence in operations (0 = the
	// witness package default).
	CommitEvery uint64
	// Network, when true, runs the server, hub and clients over real
	// TCP sockets on localhost instead of in-process transports.
	Network bool
	// AuditEpoch switches Protocol II clients into epoch-audit mode:
	// operations return optimistically and a background auditor closes
	// one epoch of AuditEpoch global operations at a time. Detection
	// weakens from "before the next operation" to "within one epoch" —
	// the paper's k-bounded deviation knob made concrete (see AUDIT.md).
	// 0 keeps the synchronous barrier; SyncEvery is ignored for sync
	// scheduling when set (epoch closure replaces sync rounds). Requires
	// Protocol II.
	AuditEpoch uint64
	// AuditWALRoot makes the epoch audit crash-durable: each client
	// journals its verification obligations under
	// AuditWALRoot/user-<i> before releasing the optimistic answer,
	// and a cluster rebuilt over the same root resumes from the
	// journals' cursors — replaying and re-verifying everything the
	// crash left unaudited. Requires AuditEpoch > 0 and Network mode
	// (resume rides the TCP hub's full-history replay).
	AuditWALRoot string
}

// Cluster is a ready-to-use deployment: an (optionally malicious)
// server and n verified users. It is the embedding API the examples
// and tests build on; cmd/tcvs-server and cmd/tcvs are the equivalent
// standalone binaries.
type Cluster struct{ d *deploy.Deployment }

// NewLocalCluster builds a cluster per cfg.
func NewLocalCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Users < 1 {
		return nil, fmt.Errorf("trustedcvs: cluster needs at least one user")
	}
	if cfg.Protocol == 0 {
		cfg.Protocol = ProtocolII
	}
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = 16
	}
	if cfg.AuditEpoch > 0 && cfg.Protocol != ProtocolII {
		return nil, fmt.Errorf("trustedcvs: epoch-audit mode requires Protocol II")
	}
	if cfg.AuditWALRoot != "" && cfg.AuditEpoch == 0 {
		return nil, fmt.Errorf("trustedcvs: AuditWALRoot requires epoch-audit mode (AuditEpoch > 0)")
	}
	if cfg.AuditWALRoot != "" && !cfg.Network {
		return nil, fmt.Errorf("trustedcvs: AuditWALRoot requires Network mode (resume needs the TCP hub's history replay)")
	}
	db := vdb.New(0)
	// The in-process cluster favors reproducible demo keys; production
	// deployments generate keys with crypto/rand out of band.
	signers, _, err := sig.DeterministicSigners(cfg.Users, 1)
	if err != nil {
		return nil, err
	}

	var srv server.Server
	switch cfg.Protocol {
	case ProtocolI:
		srv = server.NewP1(db, proto1.Initialize(signers[0], db.Root()))
	case ProtocolII:
		srv = server.NewP2(db)
	case ProtocolIII:
		srv = server.NewP3(db)
	default:
		return nil, fmt.Errorf("trustedcvs: unknown protocol %v", cfg.Protocol)
	}
	if advCfg, err := cfg.Malice.config(); err != nil {
		return nil, err
	} else if advCfg != nil {
		srv = adversary.Wrap(srv, *advCfg)
	}

	dcfg := deploy.Config{
		Server: srv, Users: cfg.Users, Signers: signers, K: cfg.SyncEvery,
		EpochLen: cfg.AuditEpoch, JournalCap: cfg.JournalCap,
		Witnesses: cfg.Witnesses, CommitEvery: cfg.CommitEvery,
		// Every TCP server runs admission control; the classifier lets
		// it shed background traffic before user operations.
		TCP: cfg.Network, Options: transport.Options{Classify: driver.Classify},
	}
	if root := cfg.AuditWALRoot; root != "" {
		dcfg.AuditWAL = func(i int) (string, durable.FS) {
			return filepath.Join(root, fmt.Sprintf("user-%d", i)), nil
		}
	}
	d, err := deploy.Start(dcfg)
	if err != nil {
		return nil, fmt.Errorf("trustedcvs: %w", err)
	}
	return &Cluster{d: d}, nil
}

// Repo returns user i's verified CVS interface with the given author
// name (see Repo's methods: Commit, Checkout, Log, ...).
func (c *Cluster) Repo(i int, author string) *Repo {
	dc := c.d.Clients[i]
	return &Repo{Client: cvs.NewClient(dc, dc, author, nil), driver: dc}
}

// Do executes one raw verified key-value operation as user i — the
// outsourced-database usage of the paper's introduction.
func (c *Cluster) Do(i int, op Op) (any, error) {
	return c.d.Clients[i].Do(op)
}

// WaitIdle blocks until user i has no synchronization round in flight,
// returning any recorded detection.
func (c *Cluster) WaitIdle(i int, timeout time.Duration) error {
	return c.d.Clients[i].WaitIdle(timeout)
}

// Err returns user i's recorded detection error, if any.
func (c *Cluster) Err(i int) error { return c.d.Clients[i].Err() }

// Seal publishes every client's final registers (epoch-audit mode):
// no client will issue further operations, and the auditors may close
// the tail window. No-op for synchronous clusters.
func (c *Cluster) Seal() {
	for _, cl := range c.d.Clients {
		cl.Seal()
	}
}

// WaitSealed blocks until every client's auditor has passed the
// all-sealed final closure check (call Seal first), returning the
// first failure. For synchronous clusters it reduces to Err.
func (c *Cluster) WaitSealed(timeout time.Duration) error {
	for _, cl := range c.d.Clients {
		if err := cl.WaitSealed(timeout); err != nil {
			return err
		}
	}
	return nil
}

// AuditStats returns user i's epoch-auditor counters (zero value for
// synchronous clusters).
func (c *Cluster) AuditStats(i int) audit.Stats {
	if a := c.d.Clients[i].Audit(); a != nil {
		return a.Stats()
	}
	return audit.Stats{}
}

// AdvanceEpoch moves a Protocol III server into the next epoch (the
// cluster owner stands in for the wall-clock timer).
func (c *Cluster) AdvanceEpoch() { c.d.Server.AdvanceEpoch() }

// AdmissionStats snapshots the TCP server's admission controller
// (zero stats for an in-process cluster, whose transport calls the
// handler directly and never queues).
func (c *Cluster) AdmissionStats() transport.AdmissionStats {
	if c.d.TCP == nil {
		return transport.AdmissionStats{}
	}
	return c.d.TCP.AdmissionStats()
}

// Forensics pools every user's transition journal (ClusterConfig.
// JournalCap must be set) and localizes the fault after a detection:
// which operation slot was forged, which users sit on which branch.
func (c *Cluster) Forensics() *ForensicsReport {
	var js []*forensics.Journal
	for _, cl := range c.d.Clients {
		if j := cl.Journal(); j != nil {
			js = append(js, j)
		}
	}
	if len(js) == 0 {
		return nil
	}
	return forensics.Locate(js)
}

// GossipWitnesses runs one push-pull gossip round on every witness
// node. With a full mesh, one round converges the witnesses' views —
// a fork split across disjoint witness subsets surfaces as evidence
// here.
func (c *Cluster) GossipWitnesses() error {
	var first error
	for _, n := range c.d.Witnesses {
		if err := n.GossipOnce(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WitnessEvidence returns the merged, verified evidence bundles held
// by all witness nodes (empty when the server has been honest).
func (c *Cluster) WitnessEvidence() []*forensics.Evidence {
	var all []*forensics.Evidence
	for _, n := range c.d.Witnesses {
		all = forensics.MergeEvidence(all, n.Evidence()...)
	}
	return all
}

// CommitHead forces a commitment at the server's current head and
// waits for delivery — used before a witness check when the cadence
// has not fired yet.
func (c *Cluster) CommitHead() {
	if c.d.Publisher == nil {
		return
	}
	c.d.Publisher.CommitNow(c.d.Server.DB().Head())
	c.d.Publisher.Flush()
}

// VerifyWitnesses runs user i's witness cross-check immediately
// (Protocol III clients have no sync round to piggyback on).
func (c *Cluster) VerifyWitnesses(i int) error {
	return c.d.Clients[i].VerifyWitnesses()
}

// ServerAddr returns the TCP server address (Network clusters only).
func (c *Cluster) ServerAddr() string {
	if c.d.TCP == nil {
		return ""
	}
	return c.d.TCP.Addr()
}

// HubAddr returns the TCP hub address (Network clusters only).
func (c *Cluster) HubAddr() string {
	if c.d.Hub == nil {
		return ""
	}
	return c.d.Hub.Addr()
}

// Close shuts down every client, the hub and the server.
func (c *Cluster) Close() { c.d.Close() }

// Repo is the verified CVS interface of one user: all of cvs.Client's
// methods (Commit, Checkout, CheckoutRev, CheckoutTag, Status, Log,
// List, Tag) plus detection introspection.
type Repo struct {
	*cvs.Client
	driver *driver.Client
}

// User returns the repo's protocol identity.
func (r *Repo) User() UserID { return r.driver.ID() }

// Workspace opens (or reopens) a verified working copy rooted at dir:
// local files with tracked base revisions, `status`, three-way-merge
// `update`, and atomic commits with up-to-date checks.
func (r *Repo) Workspace(dir string) (*Workspace, error) {
	return workspace.Open(dir, r.Client)
}

// Err returns the recorded detection error, if any.
func (r *Repo) Err() error { return r.driver.Err() }

// WaitIdle blocks until no synchronization round is in flight.
func (r *Repo) WaitIdle(timeout time.Duration) error { return r.driver.WaitIdle(timeout) }
