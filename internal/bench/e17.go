package bench

import (
	"fmt"
	"time"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/audit"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

// E17 measures the epoch-batched asynchronous audit: operations return
// optimistically with their VO attached and a background auditor
// verifies them in batches, driving the closure check once per epoch
// of N global operations instead of once per sync round. Two claims
// are under test:
//
//  1. Throughput: taking verification off the hot path buys real
//     closed-loop throughput against the same full deployment (TCP
//     transport, broadcast hub, witness quorum) running the per-round
//     sync barrier — and the answer-to-verified gap is exactly the
//     audit drain, which the queue statistics account for. The
//     acceptance number is verified epoch-audit throughput over
//     sync-mode throughput at the largest client count, drain
//     included: nothing is counted until the final closure check has
//     covered it.
//
//  2. Detection: the weakening is bounded. Sync mode convicts a lying
//     server before the next operation; epoch mode convicts within
//     one epoch — the paper's k-bounded deviation made concrete with
//     k = one epoch of operations. The adversary suite (Fork at
//     several phases of the epoch grid, a diverging witness
//     commitment) reruns under the async auditor, and every trial must land a *typed* detection whose
//     failure epoch is at most one past the epoch the server first
//     deviated in. Zero false alarms tolerated on the honest runs.

// E17Config parameterizes RunE17.
type E17Config struct {
	// DBSize is the number of preloaded keys.
	DBSize int
	// OpsPerClient is each client's closed-loop workload.
	OpsPerClient int
	// SyncK is sync mode's sync period (a barrier round every K of a
	// user's own ops).
	SyncK uint64
	// EpochFactor scales the epoch length: N = EpochFactor * clients,
	// so the epoch count stays fixed across population sizes.
	EpochFactor uint64
	// Queue is the audit queue capacity (0 = audit.DefaultQueue).
	Queue int
	// Witnesses is the witness population for phase 1.
	Witnesses int
	// ClientCounts are the population sizes to measure.
	ClientCounts []int
	// DetectUsers and DetectEpochLen shape the phase-2 adversary
	// trials.
	DetectUsers    int
	DetectEpochLen uint64
}

// DefaultE17Config is what E17() and cmd/tcvs-bench run.
func DefaultE17Config() E17Config {
	return E17Config{
		DBSize: 500, OpsPerClient: 48, SyncK: 16, EpochFactor: 16,
		Witnesses: 3, ClientCounts: []int{4, 16, 64},
		DetectUsers: 3, DetectEpochLen: 24,
	}
}

// E17Point is one measured (mode, client count) cell of phase 1.
type E17Point struct {
	Mode     string `json:"mode"`
	Clients  int    `json:"clients"`
	EpochLen uint64 `json:"epoch_len,omitempty"`
	// AnswerOpsPerSec is the optimistic answer rate (hot path only);
	// the embedded OpsPerSec is the verified rate with the audit drain —
	// seal and final closure included — charged to the denominator. For
	// sync mode the two differ only by the residual barrier flush.
	AnswerOpsPerSec float64 `json:"answer_ops_per_sec"`
	DrainMillis     float64 `json:"drain_ms"`
	loadPoint
	// Queue accounting (epoch mode only): the high-water mark against
	// capacity is the occupancy headroom, Degraded counts submissions
	// that found the queue full and fell back to a blocking (sync-like)
	// hand-off, MaxBatch is the deepest drain the worker amortized over.
	QueueCap       int    `json:"queue_cap,omitempty"`
	QueueHighWater int    `json:"queue_high_water,omitempty"`
	QueueDegraded  uint64 `json:"queue_degraded,omitempty"`
	MaxBatch       int    `json:"max_batch,omitempty"`
	EpochsClosed   uint64 `json:"epochs_closed,omitempty"`
	FalseAlarms    int    `json:"false_alarms"`
	NoQuorumSkips  uint64 `json:"no_quorum_skips"`
}

// E17Trial is one phase-2 adversary conviction.
type E17Trial struct {
	Behavior     string `json:"behavior"`
	TriggerOp    uint64 `json:"trigger_op"`
	DeviatedAtOp uint64 `json:"deviated_at_op"`
	EpochLen     uint64 `json:"epoch_len"`
	Detected     bool   `json:"detected"`
	Class        string `json:"class"`
	FailEpoch    uint64 `json:"fail_epoch"`
	// DetectLatencyOps is the exposure window in global operations:
	// for a mid-epoch conviction, the convicted counter minus the
	// deviation op; for a closure conviction, the end of the failed
	// epoch minus the deviation op (the k-bound realized).
	DetectLatencyOps uint64 `json:"detect_latency_ops"`
	WithinOneEpoch   bool   `json:"within_one_epoch"`
}

// E17Data is the full experiment result, serialized to BENCH_E17.json
// by cmd/tcvs-bench.
type E17Data struct {
	DBSize       int        `json:"db_size"`
	OpsPerClient int        `json:"ops_per_client"`
	SyncK        uint64     `json:"sync_k"`
	EpochFactor  uint64     `json:"epoch_factor"`
	Witnesses    int        `json:"witnesses"`
	Points       []E17Point `json:"points"`
	// EpochSpeedupAtMax is verified epoch-audit throughput over sync
	// throughput at the largest client count — the acceptance number.
	EpochSpeedupAtMax float64    `json:"epoch_speedup_at_max"`
	FalseAlarms       int        `json:"false_alarms"`
	Trials            []E17Trial `json:"trials"`
	AllDetected       bool       `json:"all_detected"`
	AllWithinOneEpoch bool       `json:"all_within_one_epoch"`
	MaxDetectLatency  uint64     `json:"max_detect_latency_ops"`
}

// e17Point runs one closed-loop phase-1 cell against the full
// deployment: TCP transport, broadcast hub, witness quorum.
func e17Point(mode string, cfg E17Config, n int) (E17Point, error) {
	epochLen := uint64(0)
	if mode == "epoch" {
		epochLen = cfg.EpochFactor * uint64(n)
	}
	dep, err := deploy(deployConfig{
		srv: server.NewP2(seedDB(cfg.DBSize)), users: n,
		k: cfg.SyncK, epochLen: epochLen, queue: cfg.Queue, witnesses: cfg.Witnesses,
		// No idle timeout: a sync-mode client parks its server connection
		// for the whole barrier wait, which at the largest population on a
		// small machine can exceed any reasonable production idle bound —
		// severing it mid-wait would abort the measurement, not protect it.
		opts: transport.Options{IdleTimeout: -1},
	})
	if err != nil {
		return E17Point{}, err
	}
	defer dep.close()

	res := load{
		workers: n, ops: cfg.OpsPerClient, op: clientOp(dep.clients, cfg.DBSize),
		// Epoch mode: a finished client must seal or peers stall at
		// admission waiting for its boundary reports.
		finish: func(w int) { dep.clients[w].Seal() },
	}.run()
	if err := res.err(); err != nil {
		return E17Point{}, err
	}
	hot := res.elapsed
	// Nothing counts as verified until the auditors (or the residual
	// sync rounds) have covered every answered op.
	pt := E17Point{Mode: mode, Clients: n, EpochLen: epochLen, FalseAlarms: dep.drain(120 * time.Second)}
	elapsed := time.Since(res.start)
	pt.loadPoint = newLoadPoint(res.pooled(), elapsed)
	pt.AnswerOpsPerSec = float64(pt.Ops) / hot.Seconds()
	pt.DrainMillis = float64(elapsed-hot) / float64(time.Millisecond)
	for _, dc := range dep.clients {
		pt.NoQuorumSkips += dc.NoQuorumSkips()
		if epochLen == 0 {
			continue
		}
		st := dc.Audit().Stats()
		pt.QueueCap = st.QueueCap
		if st.HighWater > pt.QueueHighWater {
			pt.QueueHighWater = st.HighWater
		}
		pt.QueueDegraded += st.Degraded
		if st.MaxBatch > pt.MaxBatch {
			pt.MaxBatch = st.MaxBatch
		}
		if done := dc.Audit().Completed(); done > pt.EpochsClosed {
			pt.EpochsClosed = done
		}
	}
	return pt, nil
}

// e17Fork reruns the fork adversary under the async auditor and
// records how long the lie survived.
func e17Fork(trigger uint64, cfg E17Config) (E17Trial, error) {
	users := cfg.DetectUsers
	epochLen := cfg.DetectEpochLen
	acfg := adversary.Config{Kind: adversary.Fork, TriggerOp: trigger, GroupB: map[sig.UserID]bool{sig.UserID(users - 1): true}}
	adv := adversary.Wrap(server.NewP2(vdb.New(0)), acfg)
	dep, err := deploy(deployConfig{srv: adv, users: users, epochLen: epochLen, opts: transport.Options{IdleTimeout: -1}})
	if err != nil {
		return E17Trial{}, err
	}
	defer dep.close()

	perUser := int(trigger+2*epochLen) / users
	wdone := trialWorkload(dep.clients, perUser, func(w, j int) vdb.Op {
		return putOp(fmt.Sprintf("t-%d", w*perUser+j))
	})
	eaf, err := awaitConviction(dep, wdone, 60*time.Second)
	if err != nil {
		return E17Trial{}, fmt.Errorf("E17 fork@%d: %w", trigger, err)
	}
	return newE17Trial(adversary.Fork.String(), trigger, adv.DeviatedAtOp(), epochLen, eaf), nil
}

// newE17Trial records a conviction: the exposure window and the
// one-epoch bound.
func newE17Trial(behavior string, trigger, deviatedAt, epochLen uint64, eaf *audit.EpochAuditFailure) E17Trial {
	tr := E17Trial{
		Behavior: behavior, TriggerOp: trigger, DeviatedAtOp: deviatedAt, EpochLen: epochLen,
		Detected: true, Class: detectionClass(eaf), FailEpoch: eaf.Epoch,
	}
	dev := deviatedAt
	if dev == 0 {
		dev = trigger
	}
	if eaf.Ctr != 0 && eaf.Ctr >= dev {
		tr.DetectLatencyOps = eaf.Ctr - dev
	} else if end := (eaf.Epoch + 1) * epochLen; end >= dev {
		tr.DetectLatencyOps = end - dev
	}
	devEpoch := uint64(0)
	if dev > 0 {
		devEpoch = (dev - 1) / epochLen
	}
	tr.WithinOneEpoch = eaf.Epoch <= devEpoch+1
	return tr
}

// e17Divergence is the witness trial: the server's publisher commits a
// root to the quorum that contradicts what the clients verified; the
// next per-epoch witness check must convict.
func e17Divergence(cfg E17Config) (E17Trial, error) {
	epochLen := cfg.DetectEpochLen
	// Commit cadence effectively never: the only commitment the
	// witnesses will hold is the forged one below.
	dep, err := deploy(deployConfig{
		srv: server.NewP2(vdb.New(0)), users: 2, epochLen: epochLen,
		witnesses: 3, pubEvery: 1 << 60, opts: transport.Options{IdleTimeout: -1},
	})
	if err != nil {
		return E17Trial{}, err
	}
	defer dep.close()

	half := int(epochLen) / 2
	if err := writeRoundRobin(dep.clients, "w", 0, half); err != nil {
		return E17Trial{}, err
	}
	for _, dc := range dep.clients {
		if err := dc.WaitAudited(30 * time.Second); err != nil {
			return E17Trial{}, err
		}
	}
	// Forge: a validly signed commitment for a counter the clients
	// verified, naming a root that was never on their history.
	forged := uint64(half / 2)
	dep.pub.CommitNow(forged, digest.Digest{0xde, 0xad, 0xbe, 0xef})
	dep.pub.Flush()
	// An error here is the conviction reaching the hot path.
	_ = writeRoundRobin(dep.clients, "w", half, int(2*epochLen))
	eaf, err := sealAndConvict(dep.clients, 60*time.Second)
	if err != nil {
		return E17Trial{}, fmt.Errorf("E17 witness-divergence: %w", err)
	}
	return newE17Trial("witness-divergence", uint64(half), uint64(half), epochLen, eaf), nil
}

// RunE17 runs the full experiment.
func RunE17(cfg E17Config) (*E17Data, error) {
	d := &E17Data{
		DBSize: cfg.DBSize, OpsPerClient: cfg.OpsPerClient,
		SyncK: cfg.SyncK, EpochFactor: cfg.EpochFactor, Witnesses: cfg.Witnesses,
	}
	throughput := map[string]float64{}
	for _, mode := range []string{"sync", "epoch"} {
		for _, n := range cfg.ClientCounts {
			pt, err := e17Point(mode, cfg, n)
			if err != nil {
				return nil, fmt.Errorf("E17 %s/%d: %w", mode, n, err)
			}
			d.Points = append(d.Points, pt)
			d.FalseAlarms += pt.FalseAlarms
			throughput[fmt.Sprintf("%s/%d", mode, n)] = pt.OpsPerSec
		}
	}
	if len(cfg.ClientCounts) > 0 {
		max := cfg.ClientCounts[len(cfg.ClientCounts)-1]
		if s := throughput[fmt.Sprintf("sync/%d", max)]; s > 0 {
			d.EpochSpeedupAtMax = throughput[fmt.Sprintf("epoch/%d", max)] / s
		}
	}

	// Phase 2: the adversary suite under the async auditor. Fork
	// triggers sweep the epoch grid — just inside an epoch, at its last
	// op, and deep in later epochs — so the latency distribution shows
	// both the near-instant and the full-epoch-of-exposure cases.
	N := cfg.DetectEpochLen
	d.AllDetected, d.AllWithinOneEpoch = true, true
	for _, trigger := range []uint64{N / 3, N - 1, N + N/2, 2*N + 2, 3*N + N/3} {
		tr, err := e17Fork(trigger, cfg)
		if err != nil {
			return nil, err
		}
		d.Trials = append(d.Trials, tr)
	}
	tr, err := e17Divergence(cfg)
	if err != nil {
		return nil, err
	}
	d.Trials = append(d.Trials, tr)
	for _, tr := range d.Trials {
		d.AllDetected = d.AllDetected && tr.Detected
		d.AllWithinOneEpoch = d.AllWithinOneEpoch && tr.WithinOneEpoch
		if tr.DetectLatencyOps > d.MaxDetectLatency {
			d.MaxDetectLatency = tr.DetectLatencyOps
		}
	}
	return d, nil
}

// Table renders the data as the E17 exhibit.
func (d *E17Data) Table() *Table {
	t := &Table{
		ID:       "E17",
		Title:    "Epoch-batched async audit: verified throughput off the hot path, detection within one epoch",
		PaperRef: "Section 2.2.1's k-bounded deviation with k = one epoch; DESIGN.md \"Epoch-batched audit\"",
		Columns:  []string{"mode", "clients", "epoch-N", "answered/s", "verified/s", "p50-us", "p99-us", "queue-high/cap", "degraded", "alarms"},
	}
	for _, p := range d.Points {
		epoch, q, deg := "-", "-", "-"
		if p.EpochLen > 0 {
			epoch = fmt.Sprint(p.EpochLen)
			q = fmt.Sprintf("%d/%d", p.QueueHighWater, p.QueueCap)
			deg = fmt.Sprint(p.QueueDegraded)
		}
		t.AddRow(p.Mode, p.Clients, epoch, int(p.AnswerOpsPerSec), int(p.OpsPerSec),
			fmt.Sprintf("%.0f", p.P50Micros), fmt.Sprintf("%.0f", p.P99Micros), q, deg, p.FalseAlarms)
	}
	for _, tr := range d.Trials {
		t.AddRow(fmt.Sprintf("detect %s@%d", tr.Behavior, tr.TriggerOp), "-", tr.EpochLen, "-", "-", "-", "-",
			fmt.Sprintf("lat=%d ops", tr.DetectLatencyOps), tr.Class, boolMark(tr.WithinOneEpoch)+" <=1 epoch")
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("verified throughput counts nothing until the audit drain (seal + final closure) finishes; epoch-audit over sync at the largest population: %.2fx (acceptance: >= 1.5x)", d.EpochSpeedupAtMax),
		fmt.Sprintf("false alarms across all honest runs: %d; witness checks ran per epoch on the auditor, no-quorum skips stayed availability facts", d.FalseAlarms),
		fmt.Sprintf("every adversary trial convicted with a typed detection within one epoch of first deviation (max exposure %d ops); sync mode's bound is 'before the next op', epoch mode's is 'within one epoch' — the paper's k-deviation knob made concrete", d.MaxDetectLatency))
	return t
}
