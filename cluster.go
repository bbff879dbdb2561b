package trustedcvs

import (
	"fmt"
	"path/filepath"
	"time"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/audit"
	"trustedcvs/internal/backoff"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/witness"
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
type Cluster struct {
	cfg     ClusterConfig
	srv     server.Server
	tcp     *transport.Server
	hub     *broadcast.Hub
	tcpHub  *broadcast.HubServer
	clients []*driver.Client

	witnesses []*witness.Node
	publisher *witness.Publisher
}

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
	signers, ring, err := sig.DeterministicSigners(cfg.Users, 1)
	if err != nil {
		return nil, err
	}

	var honest server.Server
	switch cfg.Protocol {
	case ProtocolI:
		honest = server.NewP1(db, proto1.Initialize(signers[0], db.Root()))
	case ProtocolII:
		honest = server.NewP2(db)
	case ProtocolIII:
		honest = server.NewP3(db)
	default:
		return nil, fmt.Errorf("trustedcvs: unknown protocol %v", cfg.Protocol)
	}
	srv := honest
	if advCfg, err := cfg.Malice.config(); err != nil {
		return nil, err
	} else if advCfg != nil {
		srv = adversary.Wrap(honest, *advCfg)
	}

	c := &Cluster{cfg: cfg, srv: srv}
	if cfg.Witnesses > 0 {
		wid, err := witness.NewIdentity("primary")
		if err != nil {
			return nil, err
		}
		every := cfg.CommitEvery
		if cfg.AuditEpoch > 0 && every == 0 {
			// Epoch-audit deployments default the commitment cadence to
			// the epoch length, aligned to the epoch grid, so every
			// closure check has a commitment from its own window.
			every = cfg.AuditEpoch
		}
		pub := witness.NewPublisher(wid, every)
		if cfg.AuditEpoch > 0 {
			pub.Align()
		}
		for i := 0; i < cfg.Witnesses; i++ {
			c.witnesses = append(c.witnesses, witness.NewNode(fmt.Sprintf("witness-%d", i)))
		}
		for i, n := range c.witnesses {
			n.Pin(wid.Name(), wid.Public())
			for j, peer := range c.witnesses {
				if j == i {
					continue
				}
				p := peer
				n.AddPeer(p.Name(), func() (transport.Caller, error) {
					return transport.NewInproc(p.Handler()), nil
				})
			}
			nn := n
			pub.AddWitness(nn.Name(), func() (transport.Caller, error) {
				return transport.NewInproc(nn.Handler()), nil
			})
		}
		c.publisher = pub
		// The hook sits outside the adversary wrapper: a server that
		// starts lying still publishes commitments for the history it
		// serves, which is exactly what the witnesses convict.
		srv = server.WithOpHook(srv, pub.OpApplied)
		c.srv = srv
	}
	store := cvs.NewStore()
	handler := driver.NewHandler(srv, store)

	dial := func() (transport.Caller, error) { return transport.NewInproc(handler), nil }
	join := func() (broadcast.Channel, error) { return c.localHub().Join(), nil }
	hubDials := 0 // non-resumable TCP hub channels opened
	if cfg.Network {
		// Every TCP server runs admission control; the classifier lets
		// it shed background traffic before user operations.
		ts, err := transport.ListenOpts("127.0.0.1:0", handler, transport.Options{Classify: driver.Classify})
		if err != nil {
			return nil, err
		}
		c.tcp = ts
		hs, err := broadcast.ListenHub("127.0.0.1:0")
		if err != nil {
			ts.Close()
			return nil, err
		}
		c.tcpHub = hs
		dial = func() (transport.Caller, error) { return transport.Dial(ts.Addr()) }
		join = func() (broadcast.Channel, error) {
			hubDials++
			return broadcast.DialHub(hs.Addr())
		}
		if cfg.AuditWALRoot != "" {
			// Durable clients need the resumable channel: a restarted
			// client's fresh session replays the hub's entire report
			// history, re-delivering every peer boundary report its
			// recovery must re-close epochs against.
			join = func() (broadcast.Channel, error) { return broadcast.DialHubResume(hs.Addr()), nil }
		}
	}

	for i := 0; i < cfg.Users; i++ {
		conn, err := dial()
		if err != nil {
			c.Close()
			return nil, err
		}
		var dc *driver.Client
		switch cfg.Protocol {
		case ProtocolI:
			bc, err := join()
			if err != nil {
				c.Close()
				return nil, err
			}
			u := proto1.NewUser(signers[i], ring, cfg.SyncEvery)
			if cfg.JournalCap > 0 {
				u.EnableJournal(cfg.JournalCap)
			}
			dc = driver.NewP1(u, conn, bc, cfg.Users)
		case ProtocolII:
			bc, err := join()
			if err != nil {
				c.Close()
				return nil, err
			}
			u := proto2.NewUser(sig.UserID(i), db.Root(), cfg.SyncEvery)
			if cfg.JournalCap > 0 {
				u.EnableJournal(cfg.JournalCap)
			}
			if cfg.AuditEpoch > 0 {
				walDir := ""
				if cfg.AuditWALRoot != "" {
					walDir = filepath.Join(cfg.AuditWALRoot, fmt.Sprintf("user-%d", i))
				}
				dc, err = driver.NewP2EpochWAL(u, conn, bc, cfg.Users, cfg.AuditEpoch, 0, walDir, nil)
				if err != nil {
					c.Close()
					return nil, err
				}
			} else {
				dc = driver.NewP2(u, conn, bc, cfg.Users)
			}
		case ProtocolIII:
			u := proto3.NewUser(signers[i], ring, db.Root())
			if cfg.JournalCap > 0 {
				u.EnableJournal(cfg.JournalCap)
			}
			dc = driver.NewP3(u, conn)
		}
		if c.publisher != nil {
			chk := witness.NewCheck("primary", c.publisher.Identity().Public(), 0)
			chk.SetEpochLen(cfg.AuditEpoch)
			for _, n := range c.witnesses {
				nn := n
				chk.AddWitness(nn.Name(), func() (transport.Caller, error) {
					return transport.NewInproc(nn.Handler()), nil
				})
			}
			dc.SetWitnessCheck(chk)
		}
		c.clients = append(c.clients, dc)
	}
	// A non-resumable hub channel gets no replay: a sync report
	// published before a peer's connection is accepted would be lost
	// and the round would hang. Wait until the hub has registered every
	// one of them before any sync traffic flows. (Resumable channels
	// replay the hub's log; Protocol III joins none.)
	if hubDials > 0 {
		deadline := time.Now().Add(10 * time.Second)
		poll := backoff.Poll(time.Millisecond)
		for c.tcpHub.Stats().Conns < hubDials {
			if time.Now().After(deadline) {
				c.Close()
				return nil, fmt.Errorf("trustedcvs: hub registered %d of %d subscribers", c.tcpHub.Stats().Conns, hubDials)
			}
			poll.Sleep()
		}
	}
	return c, nil
}

func (c *Cluster) localHub() *broadcast.Hub {
	if c.hub == nil {
		c.hub = broadcast.NewHub()
	}
	return c.hub
}

// Repo returns user i's verified CVS interface with the given author
// name (see Repo's methods: Commit, Checkout, Log, ...).
func (c *Cluster) Repo(i int, author string) *Repo {
	dc := c.clients[i]
	return &Repo{Client: cvs.NewClient(dc, dc, author, nil), driver: dc}
}

// Do executes one raw verified key-value operation as user i — the
// outsourced-database usage of the paper's introduction.
func (c *Cluster) Do(i int, op Op) (any, error) {
	return c.clients[i].Do(op)
}

// WaitIdle blocks until user i has no synchronization round in flight,
// returning any recorded detection.
func (c *Cluster) WaitIdle(i int, timeout time.Duration) error {
	return c.clients[i].WaitIdle(timeout)
}

// Err returns user i's recorded detection error, if any.
func (c *Cluster) Err(i int) error { return c.clients[i].Err() }

// Seal publishes every client's final registers (epoch-audit mode):
// no client will issue further operations, and the auditors may close
// the tail window. No-op for synchronous clusters.
func (c *Cluster) Seal() {
	for _, cl := range c.clients {
		cl.Seal()
	}
}

// WaitSealed blocks until every client's auditor has passed the
// all-sealed final closure check (call Seal first), returning the
// first failure. For synchronous clusters it reduces to Err.
func (c *Cluster) WaitSealed(timeout time.Duration) error {
	for _, cl := range c.clients {
		if err := cl.WaitSealed(timeout); err != nil {
			return err
		}
	}
	return nil
}

// AuditStats returns user i's epoch-auditor counters (zero value for
// synchronous clusters).
func (c *Cluster) AuditStats(i int) audit.Stats {
	if a := c.clients[i].Audit(); a != nil {
		return a.Stats()
	}
	return audit.Stats{}
}

// AdvanceEpoch moves a Protocol III server into the next epoch (the
// cluster owner stands in for the wall-clock timer).
func (c *Cluster) AdvanceEpoch() { c.srv.AdvanceEpoch() }

// AdmissionStats snapshots the TCP server's admission controller
// (zero stats for an in-process cluster, whose transport calls the
// handler directly and never queues).
func (c *Cluster) AdmissionStats() transport.AdmissionStats {
	if c.tcp == nil {
		return transport.AdmissionStats{}
	}
	return c.tcp.AdmissionStats()
}

// Forensics pools every user's transition journal (ClusterConfig.
// JournalCap must be set) and localizes the fault after a detection:
// which operation slot was forged, which users sit on which branch.
func (c *Cluster) Forensics() *ForensicsReport {
	var js []*forensics.Journal
	for _, cl := range c.clients {
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
	for _, n := range c.witnesses {
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
	for _, n := range c.witnesses {
		all = forensics.MergeEvidence(all, n.Evidence()...)
	}
	return all
}

// CommitHead forces a commitment at the server's current head and
// waits for delivery — used before a witness check when the cadence
// has not fired yet.
func (c *Cluster) CommitHead() {
	if c.publisher == nil {
		return
	}
	c.publisher.CommitNow(c.srv.DB().Head())
	c.publisher.Flush()
}

// VerifyWitnesses runs user i's witness cross-check immediately
// (Protocol III clients have no sync round to piggyback on).
func (c *Cluster) VerifyWitnesses(i int) error {
	return c.clients[i].VerifyWitnesses()
}

// ServerAddr returns the TCP server address (Network clusters only).
func (c *Cluster) ServerAddr() string {
	if c.tcp == nil {
		return ""
	}
	return c.tcp.Addr()
}

// HubAddr returns the TCP hub address (Network clusters only).
func (c *Cluster) HubAddr() string {
	if c.tcpHub == nil {
		return ""
	}
	return c.tcpHub.Addr()
}

// Close shuts down every client, the hub and the server.
func (c *Cluster) Close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	if c.hub != nil {
		c.hub.Close()
	}
	if c.tcpHub != nil {
		c.tcpHub.Close()
	}
	if c.tcp != nil {
		c.tcp.Close()
	}
}

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
