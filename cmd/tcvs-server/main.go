// Command tcvs-server runs the (untrusted) Trusted CVS server: the
// authenticated database, the content store, and — for demonstration —
// any of the paper's malicious behaviors.
//
// It can also host the users' broadcast hub (-hub). In a real
// deployment the hub belongs to the users, not the server; hosting it
// here is a convenience for demos and changes nothing about the
// security argument, because hub traffic is only ever *verified* by
// users against each other's reports.
//
// Usage:
//
//	tcvs-server -addr :7070 -hub :7071 -proto 2
//	tcvs-server -addr :7070 -proto 2 -behavior fork -trigger 5 -group-b 1,2
//
// Witness replication: -witnesses makes the primary publish signed
// epoch root commitments to remote witness nodes; -witness runs this
// process as one of those witnesses instead:
//
//	tcvs-server -witness -addr :7072 -peers :7073,:7074
//	tcvs-server -addr :7070 -witnesses :7072,:7073,:7074 -commit-every 8
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/witness"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "server listen address")
		hubAddr  = flag.String("hub", "", "also host a broadcast hub on this address (demo convenience)")
		proto    = flag.String("proto", "2", "protocol: 1, 2 or 3")
		order    = flag.Int("order", 0, "Merkle branching factor (0 = default)")
		users    = flag.Int("users", 8, "user population (key ring size, protocol 1 only)")
		seed     = flag.Int64("seed", 1, "deterministic key seed shared with clients (protocol 1 only)")
		epoch    = flag.Duration("epoch", 30*time.Second, "epoch length (protocol 3 only)")
		behavior = flag.String("behavior", "honest", behaviorUsage())
		trigger  = flag.Uint64("trigger", 0, "operation index at which the behavior activates")
		groupB   = flag.String("group-b", "", "comma-separated user IDs served from the fork")
		target   = flag.Uint("target", 0, "victim user for replay-stale / withhold-backup")
		dataFile = flag.String("data", "", "persistence file (protocol 2 only): loaded at start, saved periodically")
		saveIvl  = flag.Duration("save-interval", 30*time.Second, "how often to persist -data")

		witnessMode = flag.Bool("witness", false, "run as a witness node instead of the primary")
		witnessName = flag.String("witness-name", "", "witness node name (default derived from -addr)")
		peers       = flag.String("peers", "", "comma-separated peer witness addresses to gossip with (-witness mode)")
		gossipIvl   = flag.Duration("gossip-interval", 2*time.Second, "gossip round cadence (-witness mode)")
		witnesses   = flag.String("witnesses", "", "comma-separated witness addresses the primary publishes signed root commitments to")
		commitEvery = flag.Uint64("commit-every", 0, "commitment cadence in operations (0 = default)")

		auditMode = flag.String("audit", "sync", "client audit mode this deployment is provisioned for: sync (per-op barrier) or epoch (async epoch-batched audit)")
		epochLen  = flag.Uint64("epoch-len", 0, "epoch length in global operations (-audit epoch; clients must use the same value)")
		auditWAL  = flag.String("audit-wal", "", "durable op journal directory (protocol 2, honest only): applied ops and accepted content pushes are journaled with epoch-batched fsync and replayed over the -data snapshot on start")

		overloadTarget = flag.Duration("overload-target", 0, "per-request latency target the adaptive limit steers toward (0 = package default)")
		overloadQueue  = flag.Int("overload-queue", 0, "admission queue depth across all priority classes (0 = package default)")
		statsAddr      = flag.String("stats-addr", "", "serve the operator debug endpoint (GET /debug/tcvs, expvar at /debug/vars) on this address")
	)
	flag.Parse()

	if *witnessMode {
		runWitness(*addr, *witnessName, *peers, *gossipIvl)
		return
	}

	p, err := server.ParseProtocol(*proto)
	if err != nil {
		log.Fatal(err)
	}
	// Epoch-audit mode is a client-side choice (see internal/audit);
	// the server's share of it is pinning the witness commitment
	// cadence to the epoch grid so every closure check can compare
	// against a commitment from its own window.
	epochAudit := false
	switch *auditMode {
	case "sync":
	case "epoch":
		if p != server.P2 {
			log.Fatal("-audit epoch needs -proto 2")
		}
		if *epochLen == 0 {
			log.Fatal("-audit epoch needs -epoch-len")
		}
		epochAudit = true
		log.Printf("provisioned for epoch-batched audit: N=%d (detection within one epoch)", *epochLen)
	default:
		log.Fatalf("-audit %q: want sync or epoch", *auditMode)
	}
	if *auditWAL != "" {
		if p != server.P2 {
			log.Fatal("-audit-wal needs -proto 2")
		}
		if *behavior != "honest" {
			log.Fatal("-audit-wal needs -behavior honest (a fork's history is not ours to preserve)")
		}
	}
	db := vdb.New(*order)
	// The session table gives reconnecting clients exactly-once retry
	// semantics; it is checkpointed and restored alongside the database
	// so retries from before a crash still replay instead of re-applying.
	sessions := transport.NewSessionTable()
	var honest server.Server
	var loadedStore *cvs.Store
	switch p {
	case server.P1:
		signers, _, err := sig.DeterministicSigners(*users, *seed)
		if err != nil {
			log.Fatal(err)
		}
		honest = server.NewP1(db, proto1.Initialize(signers[0], db.Root()))
	case server.P2:
		if *dataFile != "" {
			snap, from, err := server.LoadP2Auto(*dataFile)
			switch {
			case err == nil:
				honest, loadedStore, err = server.RestoreP2(snap)
				if err != nil {
					log.Fatalf("restore %s: %v", from, err)
				}
				sessions.RestoreSessions(snap.Sessions)
				log.Printf("restored state from %s: %d ops, root %s",
					from, honest.DB().Ctr(), honest.DB().Root().Short())
			case errors.Is(err, server.ErrNoSnapshot):
				// First boot: start from the empty repository.
			default:
				log.Fatalf("load %s: %v", *dataFile, err)
			}
		}
		if honest == nil {
			honest = server.NewP2(db)
		}
	case server.P3:
		honest = server.NewP3(db)
	}

	store := loadedStore
	if store == nil {
		store = cvs.NewStore()
	}

	// The op journal replays its tail over the restored snapshot BEFORE
	// any decoration and before the transport serves: recovery re-applies
	// exactly the acked operations (and re-pushes the content blobs) the
	// periodic checkpoint missed.
	var journal *server.OpJournal
	if *auditWAL != "" {
		applied, pushed, err := server.ReplayOpJournal(*auditWAL, honest, store)
		if err != nil {
			log.Fatalf("replay op journal %s: %v", *auditWAL, err)
		}
		if applied > 0 || pushed > 0 {
			log.Printf("op journal: replayed %d acked op(s) and %d content push(es) past the snapshot; head now %d, root %s",
				applied, pushed, honest.DB().Ctr(), honest.DB().Root().Short())
		}
		journal, err = server.OpenOpJournal(*auditWAL, durable.OS, *epochLen)
		if err != nil {
			log.Fatal(err)
		}
		honest = server.WithOpJournal(honest, journal)
		batch := *epochLen
		if batch == 0 {
			batch = server.DefaultJournalEpoch
		}
		log.Printf("op journal at %s (fsync batched every %d ops)", *auditWAL, batch)
	}

	srv := honest
	if *behavior != "honest" {
		cfg, err := parseBehavior(*behavior, *trigger, *groupB, sig.UserID(*target))
		if err != nil {
			log.Fatal(err)
		}
		srv = adversary.Wrap(honest, cfg)
		log.Printf("WARNING: running MALICIOUSLY: %s (trigger op %d)", *behavior, *trigger)
	}

	var pub *witness.Publisher
	if *witnesses != "" {
		wid, err := witness.NewIdentity("primary")
		if err != nil {
			log.Fatal(err)
		}
		every := *commitEvery
		if epochAudit && every == 0 {
			every = *epochLen
		}
		pub = witness.NewPublisher(wid, every)
		if epochAudit {
			pub.Align()
		}
		count := 0
		for _, w := range strings.Split(*witnesses, ",") {
			w = strings.TrimSpace(w)
			if w == "" {
				continue
			}
			wa := w
			pub.AddWitness(wa, func() (transport.Caller, error) { return transport.Dial(wa) })
			count++
		}
		if count == 0 {
			log.Fatal("-witnesses given but no usable address")
		}
		srv = server.WithOpHook(srv, pub.OpApplied)
		log.Printf("publishing root commitments to %d witnesses", count)
	}

	if p == server.P3 {
		go func() {
			for range time.Tick(*epoch) {
				srv.AdvanceEpoch()
				log.Printf("epoch advanced to %d", srv.Epoch())
			}
		}()
	}

	handler := driver.NewHandler(srv, store)
	if journal != nil {
		// Content bypasses the protocol server, so the decorator on srv
		// never sees it; journal it at the handler instead.
		handler = journalPushes(handler, journal, srv)
	}
	// The saver runs beside live traffic: SaveP2 checkpoints the
	// protocol state through its own ordered section (an O(1) fork of
	// the copy-on-write database) and the content store snapshots under
	// its own lock, so persistence never stalls the pipelined hot path.
	persisting := *dataFile != "" && p == server.P2 && *behavior == "honest"
	if persisting {
		go func() {
			for range time.Tick(*saveIvl) {
				ctr, err := saveState(*dataFile, srv, store, sessions)
				if err != nil {
					log.Printf("persist: %v", err)
					continue
				}
				// Journal epochs fully covered by the durable checkpoint
				// are dead weight; drop them.
				if journal != nil {
					if err := journal.TruncateThrough(ctr); err != nil {
						log.Printf("journal truncate: %v", err)
					}
				}
			}
		}()
	}
	ts, err := transport.ListenOpts(*addr, handler, transport.Options{
		Sessions:  sessions,
		Admission: transport.AdmissionOptions{Target: *overloadTarget, QueueDepth: *overloadQueue},
		Classify:  driver.Classify,
	})
	if err != nil {
		log.Fatal(err)
	}
	armed := ts.AdmissionOptions()
	log.Printf("overload protection armed (target %v, queue %d, limit %d..%d)",
		armed.Target, armed.QueueDepth, armed.MinLimit, armed.MaxLimit)
	log.Printf("tcvs-server (%v) listening on %s", p, ts.Addr())

	var hub *broadcast.HubServer
	if *hubAddr != "" {
		hub, err = broadcast.ListenHub(*hubAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("broadcast hub on %s", hub.Addr())
	}

	if *statsAddr != "" {
		src := statsSources{Admission: ts.AdmissionStats, EpochLen: *epochLen}
		if hub != nil {
			src.Hub = func() (int, int, uint64, uint64) {
				st := hub.Stats()
				return st.Conns, st.LogLen, st.SlowFlips, st.Evictions
			}
		}
		if pub != nil {
			src.Lanes = pub.LaneStates
			src.Fanout = pub.FanoutStats
		}
		src.WALMode = func() string {
			switch {
			case journal == nil:
				return "none"
			case journal.Err() != nil:
				return "degraded"
			default:
				return "epoch-batched"
			}
		}
		mux := newStatsMux(src)
		// expvar publication happens exactly once, here: the same
		// snapshot document rides the standard /debug/vars page.
		expvar.Publish("tcvs", expvar.Func(func() any { return src.snapshot() }))
		mux.Handle("/debug/vars", expvar.Handler())
		go func() {
			log.Printf("stats endpoint on http://%s/debug/tcvs", *statsAddr)
			if err := (&http.Server{Addr: *statsAddr, Handler: mux}).ListenAndServe(); err != nil {
				log.Printf("stats endpoint: %v", err)
			}
		}()
	}

	// Graceful shutdown, in dependency order:
	//
	//  1. Sever the transport (drain in-flight handlers, accept nothing
	//     new) so no op is acknowledged past the cut.
	//  2. Epoch mode: flush the audit pipeline's server half — every
	//     pending witness commitment must be delivered before the
	//     checkpoint, or a clean shutdown would leave the final epochs'
	//     closure checks without a commitment to quorum against (the
	//     unaudited tail the PR4-era drain→checkpoint path left behind).
	//  3. Checkpoint, then truncate and close the op journal: the
	//     snapshot now covers everything the journal holds, and Close
	//     fsyncs whatever tail batching deferred.
	//
	// Any other order lets an acked or commitment-pending tail slip past
	// the durable cut; on restart clients would — correctly, but
	// needlessly — raise rollback or closure alarms.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	s := <-sigc
	log.Printf("%v: draining transport", s)
	if err := ts.Shutdown(5 * time.Second); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if epochAudit && pub != nil {
		pub.Flush()
		log.Printf("witness commitments flushed")
	}
	if persisting {
		ctr, err := saveState(*dataFile, srv, store, sessions)
		if err != nil {
			log.Fatalf("final checkpoint: %v", err)
		}
		log.Printf("state saved to %s (%d ops)", *dataFile, ctr)
		if journal != nil {
			if err := journal.TruncateThrough(ctr); err != nil {
				log.Printf("journal truncate: %v", err)
			}
		}
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Printf("journal close: %v", err)
		}
		if err := journal.Err(); err != nil {
			log.Printf("journal had degraded: %v", err)
		}
	}
}

// runWitness serves the witness wire protocol: it records the
// primary's signed commitments, gossips with its peers so forks split
// across disjoint witness subsets surface within one round, and holds
// the newest validated checkpoint for promotion.
func runWitness(addr, name, peers string, gossipIvl time.Duration) {
	if name == "" {
		name = "witness@" + addr
	}
	n := witness.NewNode(name)
	for _, p := range strings.Split(peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		pa := p
		n.AddPeer(pa, func() (transport.Caller, error) { return transport.Dial(pa) })
	}
	ts, err := transport.Listen(addr, n.Handler())
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("tcvs-server witness %q listening on %s", name, ts.Addr())
	if peers != "" {
		go func() {
			for range time.Tick(gossipIvl) {
				if err := n.GossipOnce(); err != nil {
					log.Printf("gossip: %v", err)
				}
				if evs := n.Evidence(); len(evs) > 0 {
					log.Printf("ALARM: holding %d evidence bundle(s) of primary equivocation", len(evs))
				}
			}
		}()
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	<-sigc
	ts.Close()
}

// saveState persists the Protocol II server + store + session cache as
// one crash-safe generation and returns the checkpointed op counter
// (the op-journal truncation horizon). The session freeze quiesces
// dispatch for only as long as the O(1) state capture takes; encoding
// and disk I/O run after traffic has resumed.
func saveState(path string, srv server.Server, store *cvs.Store, sessions *transport.SessionTable) (uint64, error) {
	var snap *server.P2Snapshot
	var ctr uint64
	var cerr error
	sessions.Freeze(func(ss *transport.SessionsSnapshot) {
		snap, cerr = server.CheckpointP2(srv, store)
		if cerr == nil {
			snap.Sessions = ss
			ctr = srv.DB().Ctr() // quiesced: this IS the snapshot's counter
		}
	})
	if cerr != nil {
		return 0, cerr
	}
	return ctr, durable.WriteFileAtomic(durable.OS, path, true, func(w io.Writer) error {
		return server.EncodeP2Snapshot(w, snap)
	})
}

// behaviorUsage is the -behavior flag's help text, spelled from the
// adversary package's one table of names.
func behaviorUsage() string {
	return "malicious behavior: " + strings.Join(adversary.Names(), ", ")
}

func parseBehavior(name string, trigger uint64, groupB string, target sig.UserID) (adversary.Config, error) {
	kind, err := adversary.ParseKind(name)
	if err != nil {
		return adversary.Config{}, err
	}
	cfg := adversary.Config{Kind: kind, TriggerOp: trigger, Target: target}
	if cfg.Kind == adversary.Fork {
		cfg.GroupB = map[sig.UserID]bool{}
		for _, part := range strings.Split(groupB, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			id, err := strconv.ParseUint(part, 10, 32)
			if err != nil {
				return cfg, fmt.Errorf("bad -group-b entry %q: %v", part, err)
			}
			cfg.GroupB[sig.UserID(id)] = true
		}
		if len(cfg.GroupB) == 0 {
			fmt.Fprintln(os.Stderr, "fork behavior needs -group-b")
			os.Exit(2)
		}
	}
	return cfg, nil
}

// journalPushes wraps the request handler so every accepted content
// push is journaled before its acknowledgement is released, whichever
// way it travelled: on its own, or riding with the commit that names
// it — recorded as the same PushContentRequest entries either way, so
// a crash after an acked commit replays its content.
func journalPushes(inner transport.Handler, journal *server.OpJournal, srv server.Server) transport.Handler {
	return func(req any) (any, error) {
		resp, err := inner(req)
		if err != nil {
			return resp, err
		}
		switch r := req.(type) {
		case *core.PushContentRequest:
			journal.RecordPush(r, srv.DB().Ctr())
		case *core.RiderRequest:
			for _, blob := range r.Blobs {
				journal.RecordPush(&core.PushContentRequest{Content: blob}, srv.DB().Ctr())
			}
		}
		return resp, err
	}
}
