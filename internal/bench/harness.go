package bench

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"trustedcvs/internal/audit"
	"trustedcvs/internal/backoff"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/witness"
)

// The substrate the measured experiments (E14 onward) and the stress
// test are configurations of: one load runner, one latency reducer,
// one deployment builder and one condition poll.

// ---- load runner ----

// arrival is one operation the runner hands to a load's op function.
type arrival struct {
	worker int
	// seq numbers the worker's arrivals from zero.
	seq int
	// sched is when the operation was due: its instant on the arrival
	// grid in open loop, the moment of issue in closed loop. Latency is
	// charged from it.
	sched time.Time
	// missed marks an open-loop arrival the window closed on before the
	// backlogged generator reached it. op is still called, so the
	// arrival is accounted for — silently dropping it would flatter an
	// overloaded server — but must not issue it.
	missed bool
}

// load configures one run of a worker fleet, one goroutine per worker,
// issuing operations back to back (closed loop) or on a fixed arrival
// grid (open loop).
type load struct {
	workers int
	// ops and window bound a worker's run: ops arrivals, or
	// (ops == 0) as many as are due within window or before stop
	// closes.
	ops    int
	window time.Duration
	// interval > 0 selects open loop. Worker w's j-th arrival is due at
	// origin + (j + w/workers)*interval — the fleet's arrivals form one
	// uniform grid of rate workers/interval instead of beating in
	// lockstep — and is charged latency from that instant whether or
	// not it could be issued on time, so queueing behind a slow server
	// is measured rather than omitted (the coordinated-omission trap).
	interval time.Duration
	// stop, when closed, ends the run early.
	stop <-chan struct{}
	// op performs one arrival and reports whether its latency belongs
	// in the sample. An error ends that worker's run.
	op func(a arrival) (timed bool, err error)
	// finish, if set, runs on a worker's goroutine once it has issued
	// every one of its ops without error.
	finish func(worker int)
}

// loadResult is what a run measured.
type loadResult struct {
	// elapsed runs from the launch to the last worker's return.
	elapsed time.Duration
	lats    [][]time.Duration // per worker, timed ops only
	errs    []error           // per worker
}

// err returns the first worker error.
func (r *loadResult) err() error {
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pooled returns every worker's latencies in one sample.
func (r *loadResult) pooled() []time.Duration {
	var all []time.Duration
	for _, l := range r.lats {
		all = append(all, l...)
	}
	return all
}

// openLoopLead is how far after launch an open-loop arrival grid
// begins, so spawning the fleet does not eat into the first arrivals.
const openLoopLead = 5 * time.Millisecond

func (l load) run() *loadResult {
	res := &loadResult{lats: make([][]time.Duration, l.workers), errs: make([]error, l.workers)}
	// Whatever built the deployment leaves the heap hot; a collection
	// here keeps that GC debt from being paid inside the run.
	runtime.GC()
	start := time.Now()
	origin := start
	if l.interval > 0 {
		origin = origin.Add(openLoopLead)
	}
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res.errs[w] = l.work(w, origin, &res.lats[w])
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// work is one worker's run.
func (l load) work(w int, origin time.Time, lats *[]time.Duration) error {
	end := origin.Add(l.window)
	counted := l.ops > 0 || (l.window == 0 && l.stop == nil)
	for j := 0; !counted || j < l.ops; j++ {
		a := arrival{worker: w, seq: j, sched: time.Now()}
		if l.interval > 0 {
			a.sched = origin.Add(time.Duration((float64(j) + float64(w)/float64(l.workers)) * float64(l.interval)))
		}
		if l.window > 0 && a.sched.After(end) {
			break
		}
		if l.interval > 0 && l.window > 0 && time.Now().After(end) {
			a.missed = true
			l.op(a) // tallied, not issued: nothing to time, nothing to fail
			continue
		}
		if d := time.Until(a.sched); d > 0 {
			// Open-loop pacing to the scheduled arrival, not a retry
			// cadence.
			t := time.NewTimer(d)
			select {
			case <-l.stop:
				t.Stop()
				return nil
			case <-t.C:
			}
		}
		select {
		case <-l.stop:
			return nil
		default:
		}
		timed, err := l.op(a)
		if err != nil {
			return fmt.Errorf("worker %d op %d: %w", w, j, err)
		}
		if timed {
			*lats = append(*lats, time.Since(a.sched))
		}
	}
	if l.finish != nil {
		l.finish(w)
	}
	return nil
}

// ---- latency reducer ----

// percentiles reduces a latency sample to its median and 99th
// percentile (the order statistic at p*(n-1), truncated), sorting lats
// in place. An empty sample reduces to zeros.
func percentiles(lats []time.Duration) (p50, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
	return at(0.50), at(0.99)
}

// ---- waiting ----

// pollUntil polls cond every tick until it holds or timeout passes,
// and reports whether it held.
func pollUntil(timeout, tick time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	poll := backoff.Poll(tick)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		poll.Sleep()
	}
	return true
}

// ---- deployment builder ----

// deployConfig describes one full Protocol II deployment: a server
// behind TCP, a TCP broadcast hub, and a population of driver clients.
type deployConfig struct {
	// srv is the server to deploy, honest or adversary-wrapped.
	srv   server.Server
	users int
	// epochLen > 0 builds epoch-audit clients (queue is the audit queue
	// capacity, 0 = audit.DefaultQueue); otherwise the clients run the
	// sync barrier every k of their own ops.
	k, epochLen uint64
	queue       int
	// witnesses > 0 adds that many in-process witness nodes, a
	// publisher on the server's op hook and a quorum check on every
	// client. pubEvery overrides the publisher's commit cadence (0 =
	// the mode's natural one: the sync period, or the aligned epoch
	// grid).
	witnesses int
	pubEvery  uint64
	opts      transport.Options
	// wrap, if set, decorates the request handler.
	wrap func(transport.Handler) transport.Handler
	// Per-user hooks for the fault experiments. nil selects a plain TCP
	// dial, a resumable hub subscription and no audit journal.
	dial    func(i int, addr string) (transport.Caller, error)
	join    func(i int, hubAddr string) broadcast.Channel
	journal func(i int) (dir string, fs durable.FS)
}

// deployment is a live deployConfig.
type deployment struct {
	cfg     deployConfig
	srv     server.Server // cfg.srv behind the witness hook
	store   *cvs.Store
	ts      *transport.Server
	hub     *broadcast.HubServer
	clients []*driver.Client
	pub     *witness.Publisher
	nodes   []*witness.Node
	root    digest.Digest
	once    sync.Once
}

func deploy(cfg deployConfig) (*deployment, error) {
	if cfg.dial == nil {
		cfg.dial = func(_ int, addr string) (transport.Caller, error) { return transport.Dial(addr) }
	}
	if cfg.join == nil {
		// Resumable hub subscribers: under 64 concurrent sync clients
		// the report fan-out bursts past any fixed buffer, and the wire
		// hub's replay log turns that into recovery instead of a lost
		// delivery.
		cfg.join = func(_ int, hubAddr string) broadcast.Channel { return broadcast.DialHubResume(hubAddr) }
	}
	if cfg.journal == nil {
		cfg.journal = func(int) (string, durable.FS) { return "", nil }
	}
	d := &deployment{cfg: cfg, srv: cfg.srv, store: cvs.NewStore(), root: cfg.srv.DB().Root()}
	if cfg.witnesses > 0 {
		wid, err := witness.NewIdentity("primary")
		if err != nil {
			return nil, err
		}
		every := cfg.k
		if cfg.epochLen > 0 {
			every = cfg.epochLen
		}
		if cfg.pubEvery > 0 {
			every = cfg.pubEvery
		}
		d.pub = witness.NewPublisher(wid, every)
		if cfg.pubEvery == 0 && cfg.epochLen > 0 {
			d.pub.Align()
		}
		for i := 0; i < cfg.witnesses; i++ {
			nd := witness.NewNode(fmt.Sprintf("w%d", i))
			nd.Pin("primary", wid.Public())
			d.pub.AddWitness(nd.Name(), inprocWitness(nd))
			d.nodes = append(d.nodes, nd)
		}
		// The hook sits outside any adversary wrapper: a server that
		// starts lying still publishes commitments for the history it
		// serves, which is exactly what the witnesses convict.
		d.srv = server.WithOpHook(cfg.srv, d.pub.OpApplied)
	}
	handler := driver.NewHandler(d.srv, d.store)
	if cfg.wrap != nil {
		handler = cfg.wrap(handler)
	}
	var err error
	if d.ts, err = transport.ListenOpts("127.0.0.1:0", handler, cfg.opts); err != nil {
		return nil, err
	}
	if d.hub, err = broadcast.ListenHub("127.0.0.1:0"); err != nil {
		d.close()
		return nil, err
	}
	d.clients = make([]*driver.Client, cfg.users)
	for i := range d.clients {
		if d.clients[i], err = d.startClient(i); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// startClient connects user i. deploy calls it for every user; the
// crash experiments call it again to restart a killed client against
// the same server and hub.
func (d *deployment) startClient(i int) (*driver.Client, error) {
	cfg := d.cfg
	conn, err := cfg.dial(i, d.ts.Addr())
	if err != nil {
		return nil, err
	}
	ch := cfg.join(i, d.hub.Addr())
	k := cfg.k
	if cfg.epochLen > 0 {
		k = 1 << 62 // sync scheduling is the auditor's job now
	}
	u := proto2.NewUser(sig.UserID(i), d.root, k)
	var dc *driver.Client
	if cfg.epochLen > 0 {
		dir, fs := cfg.journal(i)
		if dc, err = driver.NewP2EpochWAL(u, conn, ch, cfg.users, cfg.epochLen, cfg.queue, dir, fs); err != nil {
			return nil, err
		}
	} else {
		dc = driver.NewP2(u, conn, ch, cfg.users)
	}
	if d.pub != nil {
		chk := witness.NewCheck("primary", d.pub.Identity().Public(), 0)
		for _, nd := range d.nodes {
			chk.AddWitness(nd.Name(), inprocWitness(nd))
		}
		chk.SetEpochLen(cfg.epochLen)
		dc.SetWitnessCheck(chk)
	}
	return dc, nil
}

// drain waits until every client's verification has caught up with its
// answers — the final closure check in epoch mode (the clients must
// have sealed), the residual sync round otherwise — and counts the
// clients that ended with a deviation report: on an honest run, the
// false alarms.
func (d *deployment) drain(timeout time.Duration) (alarms int) {
	for _, dc := range d.clients {
		wait := dc.WaitIdle
		if d.cfg.epochLen > 0 {
			wait = dc.WaitSealed
		}
		if wait(timeout) != nil || dc.Err() != nil {
			alarms++
		}
	}
	return alarms
}

// close tears the deployment down; killed clients are nil.
func (d *deployment) close() {
	d.once.Do(func() {
		for _, dc := range d.clients {
			if dc != nil {
				dc.Close()
			}
		}
		if d.hub != nil {
			d.hub.Close()
		}
		if d.ts != nil {
			d.ts.Close()
		}
	})
}

// inprocWitness returns a DialFunc serving n in-process.
func inprocWitness(n *witness.Node) witness.DialFunc {
	return func() (transport.Caller, error) {
		return transport.NewInproc(n.Handler()), nil
	}
}

// ---- workloads ----

// putOp is a single-key write of a placeholder value.
func putOp(key string) vdb.Op {
	return &vdb.WriteOp{Puts: []vdb.KV{{Key: key, Val: []byte("v")}}}
}

// clientOp is the closed-loop workload of the deployment experiments:
// worker w drives client w through its own stride of benchOps.
func clientOp(clients []*driver.Client, dbSize int) func(arrival) (bool, error) {
	return func(a arrival) (bool, error) {
		_, err := clients[a.worker].Do(benchOp(a.worker*100003+a.seq, dbSize))
		return true, err
	}
}

// writeRoundRobin issues writes from..to-1 of distinct keys and
// valLen-byte values, client j%n issuing write j. Sequential, so the
// server's counter assignment is deterministic.
func writeRoundRobin(clients []*driver.Client, prefix string, from, to, valLen int) error {
	val := bytes.Repeat([]byte("v"), valLen)
	for j := from; j < to; j++ {
		op := &vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("%s-%d", prefix, j), Val: val}}}
		if _, err := clients[j%len(clients)].Do(op); err != nil {
			return fmt.Errorf("op %d: %w", j, err)
		}
	}
	return nil
}

// ---- epoch-audit trials ----

// trialWorkload runs an adversary trial's workload in the background:
// every client issues perUser ops (op builds client w's j-th) and seals
// when done. The returned channel closes when the fleet has returned.
//
// The clients issue concurrently, one worker each. Sequential
// round-robin would deadlock under Fork: the victim branch's counter
// advances at a fraction of the main branch's rate, so the un-forked
// clients cross into the next epoch and block at admission while the
// forked client — whose boundary report is what closes the epoch —
// never gets its turn. Concurrent clients let the forked one run until
// it crosses the boundary or seals; either way the epoch closes and the
// closure check convicts.
func trialWorkload(clients []*driver.Client, perUser int, op func(w, j int) vdb.Op) <-chan struct{} {
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		load{
			workers: len(clients), ops: perUser,
			op: func(a arrival) (bool, error) {
				// An error is the detection mirrored into the hot path:
				// the worker stops and the caller confirms the conviction.
				_, err := clients[a.worker].Do(op(a.worker, a.seq))
				return false, err
			},
			finish: func(w int) { clients[w].Seal() },
		}.run()
	}()
	return wdone
}

// detectionClass names the deviation class a typed detection carries
// ("" for an untyped error).
func detectionClass(err error) string {
	if de, ok := core.AsDetection(err); ok {
		return de.Class.String()
	}
	return ""
}

// auditFailure returns the typed epoch-audit failure some client has
// mirrored, if any.
func auditFailure(clients []*driver.Client) *audit.EpochAuditFailure {
	for _, dc := range clients {
		var eaf *audit.EpochAuditFailure
		if err := dc.Err(); err != nil && errors.As(err, &eaf) {
			return eaf
		}
	}
	return nil
}

// awaitConviction waits for an adversary trial to end in a typed
// epoch-audit failure. wdone closes when the trial's workload returns.
//
// A conviction can be one-sided (only an auditor whose chain the lie
// breaks convicts), and a convicted auditor stops reporting, so honest peers
// may stall at admission mid-workload. Once a conviction is latched the
// measurement is made: the workload gets a short grace to finish, then
// the deployment is torn down under the stalled clients. A workload
// that runs to completion undetected is left to sealAndConvict.
func awaitConviction(d *deployment, wdone <-chan struct{}, timeout time.Duration) (*audit.EpochAuditFailure, error) {
	clients := d.clients
	var eaf *audit.EpochAuditFailure
	finished := false
	pollUntil(timeout, 5*time.Millisecond, func() bool {
		select {
		case <-wdone:
			finished = true
		default:
			eaf = auditFailure(clients)
		}
		return finished || eaf != nil
	})
	switch {
	case finished:
		return sealAndConvict(clients, timeout)
	case eaf != nil:
		select {
		case <-wdone:
		case <-time.After(2 * time.Second):
			d.close()
			<-wdone
		}
	default:
		return nil, errors.New("workload stalled without a detection")
	}
	return eaf, nil
}

// sealAndConvict seals every client and waits for the final closure
// check to land a typed epoch-audit failure on one of them.
func sealAndConvict(clients []*driver.Client, timeout time.Duration) (*audit.EpochAuditFailure, error) {
	for _, dc := range clients {
		dc.Seal()
	}
	var eaf *audit.EpochAuditFailure
	if !pollUntil(timeout, time.Millisecond, func() bool { eaf = auditFailure(clients); return eaf != nil }) {
		return nil, errors.New("no typed detection before deadline")
	}
	return eaf, nil
}
