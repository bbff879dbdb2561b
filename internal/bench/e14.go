package bench

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/deploy"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/fault"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
)

// E14 measures availability and recovery under injected faults: a full
// Protocol II deployment (real TCP, resilient reconnecting clients,
// resumable broadcast hub, sync barrier every K ops) runs its entire
// workload through flaky connections while the server is killed and
// restarted from a crash-safe checkpoint mid-run. The claims under
// test, in order of importance:
//
//  1. Zero false alarms: connection resets, truncated frames, retries
//     and the restart itself never produce a deviation report. The
//     exactly-once session table is what makes retries safe; the
//     checkpoint's consistent cut (db + last-user + session cache,
//     captured under one freeze) is what makes the restart safe.
//  2. Exactly-once effects: the server's final operation counter
//     equals the number of operations the clients performed — no
//     retry was double-applied, none was lost.
//  3. Detection still works: the same faulty network with a tampering
//     server yields a DetectionError, not a hang and not a transport
//     error. Robustness must not have dulled the protocol's teeth.
//
// The report quantifies the cost: recovery latency after restart,
// reconnect counts, and the number of injected faults survived.

// E14Config parameterizes RunE14.
type E14Config struct {
	// DBSize is the number of preloaded keys.
	DBSize int
	// Users is the client population (each a full protocol user with
	// registers and sync duty).
	Users int
	// OpsPerUser is the workload each client performs.
	OpsPerUser int
	// K is the sync period: every K ops a client initiates a broadcast
	// barrier round.
	K uint64
	// Outage is how long the server stays down after the mid-run kill.
	Outage time.Duration
	// Seed derives every injector's seed; same seed, same fault
	// schedule.
	Seed int64
	// ResetProb and TruncateProb are the per-I/O fault rates on every
	// client's server and hub connections.
	ResetProb    float64
	TruncateProb float64
}

// DefaultE14Config is what cmd/tcvs-bench runs.
func DefaultE14Config() E14Config {
	return E14Config{
		DBSize: 500, Users: 4, OpsPerUser: 120, K: 8,
		Outage: 150 * time.Millisecond, Seed: 42,
		ResetProb: 0.02, TruncateProb: 0.01,
	}
}

// E14Data is the full experiment result.
type E14Data struct {
	Users      int
	OpsPerUser int
	TotalOps   uint64
	K          uint64

	FaultsInjected      uint64
	TransportReconnects uint64
	HubReconnects       uint64
	OutageMillis        float64
	RecoveryMillis      float64

	FalseAlarms    int
	FinalCtr       uint64
	CtrMatchesOps  bool
	RootContinuity bool

	AdversaryDetected bool
	DetectionClass    string
	AdversaryFaults   uint64
}

// faultyNet is the deployment the failure experiments (E14, E15) run:
// a session table on the server for exactly-once retries, and every
// client a resilient reconnecting caller plus a resumable hub
// subscription, each through its own seeded fault injector.
type faultyNet struct {
	*deploy.Deployment
	sessions  *transport.SessionTable
	injs      []*fault.Injector
	callers   []*transport.ResilientClient
	channels  []broadcast.Channel
	failovers atomic.Uint64 // client dials the primary refused and backupAddr took
}

// deployFaulty deploys cfg behind fault injection. seed derives every
// injector's and every client's jitter seed: same seed, same fault
// schedule. backupAddr, if set, is where every client's dial function
// goes when the primary refuses.
func deployFaulty(cfg deploy.Config, seed int64, resetProb, truncateProb float64, backupAddr string) (*faultyNet, error) {
	n := &faultyNet{sessions: transport.NewSessionTable()}
	injector := func(s uint64) *fault.Injector {
		inj := fault.NewInjector(fault.Config{Seed: s, After: 8, ResetProb: resetProb, TruncateProb: truncateProb})
		n.injs = append(n.injs, inj)
		return inj
	}
	cfg.Options.Sessions = n.sessions
	cfg.Dial = func(i int, addr string) (transport.Caller, error) {
		inj := injector(uint64(seed) + uint64(i))
		dial := fault.Dialer(addr, inj)
		if backupAddr != "" {
			primary, backup := dial, fault.Dialer(backupAddr, inj)
			dial = func() (net.Conn, error) {
				conn, err := primary()
				if err == nil {
					return conn, nil
				}
				if conn, err = backup(); err == nil {
					n.failovers.Add(1)
				}
				return conn, err
			}
		}
		c := transport.DialResilientFunc(dial, transport.RetryPolicy{
			CallTimeout: 5 * time.Second, MaxAttempts: 12, JitterSeed: uint64(seed)*1000 + uint64(i) + 1,
		})
		n.callers = append(n.callers, c)
		return c, nil
	}
	cfg.Join = func(i int, hubAddr string) broadcast.Channel {
		ch := broadcast.DialHubResumeFunc(fault.Dialer(hubAddr, injector(uint64(seed)+1000+uint64(i))))
		n.channels = append(n.channels, ch)
		return ch
	}
	var err error
	n.Deployment, err = deployTCP(cfg)
	return n, err
}

func (n *faultyNet) faultsInjected() uint64 {
	var t uint64
	for _, inj := range n.injs {
		t += inj.Injected()
	}
	return t
}

// failoverRun is a client workload running in the background across a
// server outage, instrumented to time the recovery.
type failoverRun struct {
	total uint64
	done  atomic.Uint64
	// resumedAt is 0 until the server is back; from then on every
	// client stamps its first completion in firstAt (unix nanos).
	resumedAt atomic.Int64
	firstAt   []atomic.Int64
	result    chan *loadResult
}

func startFailoverRun(clients []*driver.Client, opsPerUser, dbSize int) *failoverRun {
	r := &failoverRun{
		total:   uint64(len(clients)) * uint64(opsPerUser),
		firstAt: make([]atomic.Int64, len(clients)), result: make(chan *loadResult, 1),
	}
	do := clientOp(clients, dbSize)
	go func() {
		r.result <- load{workers: len(clients), ops: opsPerUser, op: func(a arrival) (bool, error) {
			if _, err := do(a); err != nil {
				return false, err
			}
			r.done.Add(1)
			if r.resumedAt.Load() != 0 && r.firstAt[a.worker].Load() == 0 {
				r.firstAt[a.worker].Store(time.Now().UnixNano())
			}
			return false, nil
		}}.run()
	}()
	return r
}

// awaitHalf blocks until the workload is half done — the kill point.
func (r *failoverRun) awaitHalf() error {
	if !pollUntil(60*time.Second, time.Millisecond, func() bool { return r.done.Load() >= r.total/2 }) {
		return fmt.Errorf("workload stalled at %d of %d ops before the kill point", r.done.Load(), r.total)
	}
	return nil
}

// resumed marks the moment the server came back.
func (r *failoverRun) resumed() { r.resumedAt.Store(time.Now().UnixNano()) }

// wait joins the workload and returns its first error.
func (r *failoverRun) wait() error { return (<-r.result).err() }

// recoveredAt is when the last client made its first progress after
// the server came back (unix nanos; 0 if none did).
func (r *failoverRun) recoveredAt() int64 {
	var last int64
	for i := range r.firstAt {
		if t := r.firstAt[i].Load(); t > last {
			last = t
		}
	}
	return last
}

// RunE14 runs the full experiment.
func RunE14(cfg E14Config) (*E14Data, error) {
	d := &E14Data{
		Users: cfg.Users, OpsPerUser: cfg.OpsPerUser,
		TotalOps: uint64(cfg.Users) * uint64(cfg.OpsPerUser), K: cfg.K,
		OutageMillis: float64(cfg.Outage.Milliseconds()),
	}

	// ---- Phase 1: honest server, kill/restart mid-workload ----
	dep, err := deployFaulty(deploy.Config{Server: server.NewP2(seedDB(cfg.DBSize)), Users: cfg.Users, K: cfg.K},
		cfg.Seed, cfg.ResetProb, cfg.TruncateProb, "")
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	run := startFailoverRun(dep.Clients, cfg.OpsPerUser, cfg.DBSize)

	// Kill the server once the workload is half done.
	if err := run.awaitHalf(); err != nil {
		return nil, fmt.Errorf("E14: %w", err)
	}
	// Sever the transport FIRST, then cut: Close waits for in-flight
	// handlers to drain, so once it returns nothing can execute or
	// acknowledge another op — every acked op is inside the cut, and an
	// ack that died with its connection is retried and replayed from
	// the restored session table. (Cutting first deadlocks: Close waits
	// on a handler that is itself waiting on the frozen session table.)
	// An acked-but-unpersisted tail would (correctly) alarm on restart,
	// and these experiments are about proving the absence of false
	// alarms.
	addr := dep.TCP.Addr()
	dep.TCP.Close()
	snap, err := server.CheckpointP2(dep.Server, dep.Store, dep.sessions)
	if err != nil {
		return nil, fmt.Errorf("E14 checkpoint: %w", err)
	}
	cutRoot := dep.Server.DB().Root()
	time.Sleep(cfg.Outage)

	// Restart: restore the snapshot into a fresh process-worth of state
	// and rebind the same address (clients are retrying against it).
	srv2, store2, sessions2, err := server.RestoreP2(snap)
	if err != nil {
		return nil, fmt.Errorf("E14 restore: %w", err)
	}
	if srv2.DB().Root() != cutRoot {
		return nil, fmt.Errorf("E14: restored root %s != checkpoint root %s", srv2.DB().Root().Short(), cutRoot.Short())
	}
	d.RootContinuity = true
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("E14 rebind %s: %w", addr, err)
	}
	dep.TCP = transport.ServeListener(lis2, driver.NewHandler(srv2, store2), transport.Options{Sessions: sessions2})
	run.resumed()

	if err := run.wait(); err != nil {
		return nil, fmt.Errorf("E14 phase 1 must complete cleanly: %w", err)
	}
	d.FalseAlarms = dep.Drain(10 * time.Second)
	if t := run.recoveredAt(); t > 0 {
		d.RecoveryMillis = float64(t-run.resumedAt.Load()) / 1e6
	}
	d.FinalCtr = srv2.DB().Ctr()
	d.CtrMatchesOps = d.FinalCtr == d.TotalOps
	d.FaultsInjected = dep.faultsInjected()
	for _, c := range dep.callers {
		d.TransportReconnects += c.Reconnects()
	}
	for _, ch := range dep.channels {
		if rc, ok := ch.(interface{ Reconnects() uint64 }); ok {
			d.HubReconnects += rc.Reconnects()
		}
	}

	// ---- Phase 2: tampering server behind the same faulty network ----
	d.DetectionClass, d.AdversaryFaults, err = runE14Adversary(cfg)
	if err != nil {
		return nil, err
	}
	d.AdversaryDetected = true
	return d, nil
}

// runE14Adversary reruns the workload against a TamperAnswer server
// through equally faulty connections: the tampered response must
// surface as a DetectionError at the victim client, proving the
// retry/reconnect machinery doesn't mask real deviations.
func runE14Adversary(cfg E14Config) (class string, faults uint64, err error) {
	trigger := uint64(cfg.Users)*uint64(cfg.OpsPerUser)/4 + 1
	srv := adversary.Wrap(server.NewP2(seedDB(cfg.DBSize)), adversary.Config{Kind: adversary.TamperAnswer, TriggerOp: trigger})
	dep, err := deployFaulty(deploy.Config{Server: srv, Users: cfg.Users, K: cfg.K},
		cfg.Seed, cfg.ResetProb, cfg.TruncateProb, "")
	if err != nil {
		return "", 0, err
	}
	defer dep.Close()

	res := load{workers: cfg.Users, ops: cfg.OpsPerUser, op: clientOp(dep.Clients, cfg.DBSize)}.run()
	var de *core.DetectionError
	others := ""
	for _, werr := range res.errs {
		if got, ok := core.AsDetection(werr); ok {
			de = got
		} else if werr != nil {
			others = werr.Error()
		}
	}
	if de == nil {
		return "", dep.faultsInjected(), fmt.Errorf("E14: tampering server was not detected (non-detection errors: %s)", others)
	}
	return de.Class.String(), dep.faultsInjected(), nil
}

// Table renders the data as the E14 exhibit.
func (d *E14Data) Table() *Table {
	t := &Table{
		ID:       "E14",
		Title:    "Robustness: availability and recovery under fault injection, kill/restart mid-workload",
		PaperRef: "Section 3 fault model boundary: benign faults tolerated, deviations detected; DESIGN.md \"Fault model & recovery\"",
		Columns:  []string{"metric", "value"},
	}
	t.AddRow("users x ops/user", fmt.Sprintf("%d x %d (k=%d)", d.Users, d.OpsPerUser, d.K))
	t.AddRow("faults injected (phase 1)", d.FaultsInjected)
	t.AddRow("transport reconnects", d.TransportReconnects)
	t.AddRow("hub reconnects", d.HubReconnects)
	t.AddRow("server outage", fmt.Sprintf("%.0f ms", d.OutageMillis))
	t.AddRow("recovery latency after restart", fmt.Sprintf("%.1f ms", d.RecoveryMillis))
	t.AddRow("false deviation alarms", d.FalseAlarms)
	t.AddRow("final ctr == total ops", fmt.Sprintf("%v (%d)", d.CtrMatchesOps, d.FinalCtr))
	t.AddRow("root continuity across restart", d.RootContinuity)
	t.AddRow("tampering detected through faults", fmt.Sprintf("%v (%s, %d faults)", d.AdversaryDetected, d.DetectionClass, d.AdversaryFaults))
	t.Notes = append(t.Notes,
		"kill = transport severed and drained, then checkpoint under session freeze: no op can be acked after the cut, so restart can never lose an acknowledged effect",
		"clients retry through resets/truncations with exactly-once server-side application (session table); the broadcast hub replays its log to reconnecting members, preserving the sync barrier's FIFO total order",
		"phase 2 reruns the workload against a tamper-answer adversary over the same faulty links: detection must fire, proving retries mask benign faults only")
	return t
}
