// Package deploy assembles the paper's system as one live stack: an
// untrusted protocol server behind the request router and the content
// store, optionally publishing signed root commitments to an
// in-process witness mesh, the users' broadcast hub, and n verified
// clients, all over in-process transports or localhost TCP. The
// library's Cluster and the experiment harness both build through
// Start, so a concern of the whole deployment is added in one place.
package deploy

import (
	"fmt"
	"sync"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/witness"
)

// Config describes one deployment.
type Config struct {
	// Server is the protocol server to deploy, honest or
	// adversary-wrapped. Its Protocol selects the clients' protocol.
	Server server.Server
	// Users is the population size.
	Users int
	// Signers holds the users' keys, indexed by user ID (Protocols I
	// and III).
	Signers []*sig.Signer
	// K is the Protocol I/II users' synchronization period, passed to
	// every user unchanged: an epoch-audit user serializes it into its
	// audit cursor's state.
	K uint64
	// EpochLen > 0 builds epoch-audit Protocol II clients, each closing
	// one epoch of EpochLen global operations at a time; 0 keeps the
	// synchronous barrier.
	EpochLen uint64
	// AuditWAL, if set, names user i's audit journal directory and its
	// filesystem (nil = the real one) in epoch-audit mode. A journaling
	// user subscribes to the TCP hub through a resumable channel, whose
	// replay of the hub's report history is what a restarted client's
	// recovery re-closes epochs against.
	AuditWAL func(i int) (dir string, fs durable.FS)
	// JournalCap > 0 gives every user a transition journal of this
	// capacity for post-detection fault localization.
	JournalCap int
	// Witnesses > 0 runs that many in-process witness nodes in a full
	// gossip mesh: the server publishes signed root commitments to all
	// of them and every client cross-checks its verified roots against
	// their quorum.
	Witnesses int
	// CommitEvery is the commitment cadence (see witness.NewPublisher).
	CommitEvery uint64
	// TCP serves the server and the hub on localhost sockets instead of
	// in-process transports; Options configures the TCP server.
	TCP     bool
	Options transport.Options
	// Wrap, if set, decorates the request handler.
	Wrap func(transport.Handler) transport.Handler
	// Dial and Join, if set, replace how user i reaches the TCP server
	// and subscribes to the TCP hub.
	Dial func(i int, addr string) (transport.Caller, error)
	Join func(i int, hubAddr string) broadcast.Channel
}

// Deployment is a live Config.
type Deployment struct {
	cfg Config
	// Server is Config.Server behind the witness op hook.
	Server server.Server
	Store  *cvs.Store
	// TCP and Hub are the TCP server and hub (nil in-process). A caller
	// that restarts the server puts the new one in TCP; Close closes
	// whichever is there.
	TCP     *transport.Server
	Hub     *broadcast.HubServer
	Clients []*driver.Client
	// Publisher and Witnesses are the witness side (nil without
	// witnesses).
	Publisher *witness.Publisher
	Witnesses []*witness.Node

	handler  transport.Handler
	local    *broadcast.Hub
	ring     *sig.Ring
	root     digest.Digest
	hubDials int // non-resumable TCP hub channels opened
	once     sync.Once
}

// Start builds and connects cfg.
func Start(cfg Config) (*Deployment, error) {
	d := &Deployment{cfg: cfg, Server: cfg.Server, Store: cvs.NewStore(),
		ring: sig.NewRing(cfg.Signers...), root: cfg.Server.DB().Root()}
	if cfg.Witnesses > 0 {
		id, err := witness.NewIdentity("primary")
		if err != nil {
			return nil, err
		}
		d.Publisher = witness.NewPublisher(id, cfg.CommitEvery, cfg.EpochLen)
		d.Witnesses = witness.Mesh(cfg.Witnesses, id)
		for _, n := range d.Witnesses {
			d.Publisher.AddWitness(n.Name(), n.Dial())
		}
		// The hook sits outside any adversary wrapper: a server that
		// starts lying still publishes commitments for the history it
		// serves, which is exactly what the witnesses convict.
		d.Server = server.WithOpHook(d.Server, d.Publisher.OpApplied)
	}
	d.handler = driver.NewHandler(d.Server, d.Store)
	if cfg.Wrap != nil {
		d.handler = cfg.Wrap(d.handler)
	}
	var err error
	if cfg.TCP {
		if d.TCP, err = transport.ListenOpts("127.0.0.1:0", d.handler, cfg.Options); err != nil {
			return nil, err
		}
		if d.Hub, err = broadcast.ListenHub("127.0.0.1:0"); err != nil {
			d.Close()
			return nil, err
		}
	} else {
		d.local = broadcast.NewHub()
	}
	d.Clients = make([]*driver.Client, cfg.Users)
	for i := range d.Clients {
		if d.Clients[i], err = d.StartClient(i); err != nil {
			d.Close()
			return nil, err
		}
	}
	// A non-resumable hub channel gets no replay: a sync report
	// published before a peer's connection is accepted would be lost
	// and the round would hang. Wait until the hub has registered every
	// one of them before any sync traffic flows.
	if d.hubDials > 0 {
		deadline := time.Now().Add(10 * time.Second)
		for poll := backoff.Poll(time.Millisecond); d.Hub.Stats().Conns < d.hubDials; poll.Sleep() {
			if time.Now().After(deadline) {
				d.Close()
				return nil, fmt.Errorf("deploy: hub registered %d of %d subscribers", d.Hub.Stats().Conns, d.hubDials)
			}
		}
	}
	return d, nil
}

// StartClient connects user i. Start calls it for every user; a crash
// experiment calls it again to restart a killed client against the
// same server and hub.
func (d *Deployment) StartClient(i int) (*driver.Client, error) {
	cfg := d.cfg
	conn, err := d.dial(i)
	if err != nil {
		return nil, err
	}
	var bc broadcast.Channel // Protocol III users exchange no reports
	if cfg.Server.Protocol() != server.P3 {
		if bc, err = d.join(i); err != nil {
			return nil, err
		}
	}
	var dc *driver.Client
	switch cfg.Server.Protocol() {
	case server.P1:
		u := proto1.NewUser(cfg.Signers[i], d.ring, cfg.K)
		if cfg.JournalCap > 0 {
			u.EnableJournal(cfg.JournalCap)
		}
		dc = driver.NewP1(u, conn, bc, cfg.Users)
	case server.P2:
		u := proto2.NewUser(sig.UserID(i), d.root, cfg.K)
		if cfg.JournalCap > 0 {
			u.EnableJournal(cfg.JournalCap)
		}
		if cfg.EpochLen == 0 {
			dc = driver.NewP2(u, conn, bc, cfg.Users)
			break
		}
		var dir string
		var fs durable.FS
		if cfg.AuditWAL != nil {
			dir, fs = cfg.AuditWAL(i)
		}
		if dc, err = driver.NewP2EpochWAL(u, conn, bc, cfg.Users, cfg.EpochLen, 0, dir, fs); err != nil {
			return nil, err
		}
	case server.P3:
		u := proto3.NewUser(cfg.Signers[i], d.ring, d.root)
		if cfg.JournalCap > 0 {
			u.EnableJournal(cfg.JournalCap)
		}
		dc = driver.NewP3(u, conn)
	default:
		return nil, fmt.Errorf("deploy: unknown protocol %v", cfg.Server.Protocol())
	}
	if d.Publisher != nil {
		dc.SetWitnessCheck(witness.CheckFor(d.Publisher.Identity(), d.Witnesses, cfg.EpochLen))
	}
	return dc, nil
}

// dial opens user i's connection to the server.
func (d *Deployment) dial(i int) (transport.Caller, error) {
	switch {
	case d.TCP == nil:
		return transport.NewInproc(d.handler), nil
	case d.cfg.Dial != nil:
		return d.cfg.Dial(i, d.TCP.Addr())
	}
	return transport.Dial(d.TCP.Addr())
}

// join subscribes user i to the hub.
func (d *Deployment) join(i int) (broadcast.Channel, error) {
	switch {
	case d.Hub == nil:
		return d.local.Join(), nil
	case d.cfg.Join != nil:
		return d.cfg.Join(i, d.Hub.Addr()), nil
	case d.cfg.AuditWAL != nil:
		return broadcast.DialHubResume(d.Hub.Addr()), nil
	}
	d.hubDials++
	return broadcast.DialHub(d.Hub.Addr())
}

// Drain waits until every client's verification has caught up with its
// answers — the final closure check in epoch-audit mode (the clients
// must have sealed), the residual sync round otherwise — and counts the
// clients that ended with a deviation report: on an honest run, the
// false alarms.
func (d *Deployment) Drain(timeout time.Duration) (alarms int) {
	for _, dc := range d.Clients {
		wait := dc.WaitIdle
		if d.cfg.EpochLen > 0 {
			wait = dc.WaitSealed
		}
		if wait(timeout) != nil || dc.Err() != nil {
			alarms++
		}
	}
	return alarms
}

// Close shuts down every client, the hub and the server, once. A
// killed client is a nil entry of Clients.
func (d *Deployment) Close() {
	d.once.Do(func() {
		for _, dc := range d.Clients {
			if dc != nil {
				dc.Close()
			}
		}
		if d.local != nil {
			d.local.Close()
		}
		if d.Hub != nil {
			d.Hub.Close()
		}
		if d.TCP != nil {
			d.TCP.Close()
		}
	})
}
