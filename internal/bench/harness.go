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
	"trustedcvs/internal/deploy"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/vdb"
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

// deployTCP starts cfg over localhost TCP. Its users subscribe to the
// hub through resumable channels unless cfg.Join says otherwise: under
// 64 concurrent sync clients the report fan-out bursts past any fixed
// buffer, and the wire hub's replay log turns that into recovery
// instead of a lost delivery. Epoch-audit users get k = 2^62: sync
// scheduling is the auditor's job.
func deployTCP(cfg deploy.Config) (*deploy.Deployment, error) {
	cfg.TCP = true
	if cfg.Join == nil {
		cfg.Join = func(_ int, hubAddr string) broadcast.Channel { return broadcast.DialHubResume(hubAddr) }
	}
	if cfg.EpochLen > 0 {
		cfg.K = 1 << 62
	}
	return deploy.Start(cfg)
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
func awaitConviction(d *deploy.Deployment, wdone <-chan struct{}, timeout time.Duration) (*audit.EpochAuditFailure, error) {
	clients := d.Clients
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
			d.Close()
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
