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

// E17 measures the detection bound of the epoch-batched asynchronous
// audit: operations return optimistically with their VO attached and
// a background auditor verifies them in batches, driving the closure
// check once per epoch of N global operations instead of once per sync
// round. Sync mode convicts a lying server before the next operation;
// epoch mode convicts within one epoch — the paper's k-bounded
// deviation made concrete with k = one epoch of operations. The
// adversary suite (Fork at several phases of the epoch grid, a
// diverging witness commitment) runs under the async auditor, and
// every trial must land a *typed* detection whose failure epoch is at
// most one past the epoch the server first deviated in. The honest
// control — the same deployment with concurrent clients and a witness
// quorum — must account for every operation with zero false alarms.

// E17Config parameterizes RunE17.
type E17Config struct {
	// Users and EpochLen shape every deployment.
	Users    int
	EpochLen uint64
	// OpsPerUser is each honest-control client's closed-loop workload.
	OpsPerUser int
	// Witnesses is the honest control's witness population.
	Witnesses int
}

// DefaultE17Config is what cmd/tcvs-bench runs.
func DefaultE17Config() E17Config {
	return E17Config{Users: 3, EpochLen: 24, OpsPerUser: 48, Witnesses: 3}
}

// E17Control is the honest control run.
type E17Control struct {
	// Ops is the server's final operation counter.
	Ops uint64
	// Queue accounting: the high-water mark against capacity is the
	// occupancy headroom; EpochsClosed is the most epochs any auditor
	// completed.
	QueueCap       int
	QueueHighWater int
	EpochsClosed   uint64
	FalseAlarms    int
}

// E17Trial is one adversary conviction.
type E17Trial struct {
	Behavior     string
	TriggerOp    uint64
	DeviatedAtOp uint64
	EpochLen     uint64
	Detected     bool
	Class        string
	FailEpoch    uint64
	// DetectLatencyOps is the exposure window in global operations:
	// for a mid-epoch conviction, the convicted counter minus the
	// deviation op; for a closure conviction, the end of the failed
	// epoch minus the deviation op (the k-bound realized).
	DetectLatencyOps uint64
	WithinOneEpoch   bool
}

// E17Data is the full experiment result.
type E17Data struct {
	Users             int
	EpochLen          uint64
	Witnesses         int
	Control           E17Control
	Trials            []E17Trial
	AllDetected       bool
	AllWithinOneEpoch bool
	MaxDetectLatency  uint64
}

// e17Control runs the honest control: concurrent closed-loop clients
// against the full deployment (TCP transport, broadcast hub, witness
// quorum), then the audit drain — seal and final closure check.
func e17Control(cfg E17Config) (E17Control, error) {
	dep, err := deploy(deployConfig{
		srv: server.NewP2(vdb.New(0)), users: cfg.Users, epochLen: cfg.EpochLen,
		witnesses: cfg.Witnesses, opts: transport.Options{IdleTimeout: -1},
	})
	if err != nil {
		return E17Control{}, err
	}
	defer dep.close()

	res := load{
		workers: cfg.Users, ops: cfg.OpsPerUser,
		op: func(a arrival) (bool, error) {
			_, err := dep.clients[a.worker].Do(putOp(fmt.Sprintf("h-%d-%d", a.worker, a.seq)))
			return false, err
		},
		// A finished client must seal or peers stall at admission
		// waiting for its boundary reports.
		finish: func(w int) { dep.clients[w].Seal() },
	}.run()
	if err := res.err(); err != nil {
		return E17Control{}, fmt.Errorf("E17 honest control: %w", err)
	}
	c := E17Control{FalseAlarms: dep.drain(60 * time.Second), Ops: dep.srv.DB().Ctr()}
	for _, dc := range dep.clients {
		st := dc.Audit().Stats()
		c.QueueCap = st.QueueCap
		c.QueueHighWater = max(c.QueueHighWater, st.HighWater)
		c.EpochsClosed = max(c.EpochsClosed, dc.Audit().Completed())
	}
	return c, nil
}

// e17Fork reruns the fork adversary under the async auditor and
// records how long the lie survived.
func e17Fork(trigger uint64, cfg E17Config) (E17Trial, error) {
	users := cfg.Users
	epochLen := cfg.EpochLen
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
	epochLen := cfg.EpochLen
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
	if err := writeRoundRobin(dep.clients, "w", 0, half, 1); err != nil {
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
	_ = writeRoundRobin(dep.clients, "w", half, int(2*epochLen), 1)
	eaf, err := sealAndConvict(dep.clients, 60*time.Second)
	if err != nil {
		return E17Trial{}, fmt.Errorf("E17 witness-divergence: %w", err)
	}
	return newE17Trial("witness-divergence", uint64(half), uint64(half), epochLen, eaf), nil
}

// RunE17 runs the full experiment.
func RunE17(cfg E17Config) (*E17Data, error) {
	d := &E17Data{Users: cfg.Users, EpochLen: cfg.EpochLen, Witnesses: cfg.Witnesses}
	var err error
	if d.Control, err = e17Control(cfg); err != nil {
		return nil, err
	}

	// The adversary suite under the async auditor. Fork triggers sweep
	// the epoch grid — just inside an epoch, at its last op, and deep in
	// later epochs — so the latency distribution shows both the
	// near-instant and the full-epoch-of-exposure cases.
	N := cfg.EpochLen
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
		Title:    "Epoch-batched async audit: detection within one epoch",
		PaperRef: "Section 2.2.1's k-bounded deviation with k = one epoch; DESIGN.md \"Epoch-batched audit\"",
		Columns:  []string{"run", "epoch-N", "deviated-at-op", "outcome", "exposure-ops", "within-one-epoch"},
	}
	c := d.Control
	t.AddRow(fmt.Sprintf("honest control (%d users, %d witnesses)", d.Users, d.Witnesses), d.EpochLen, "-",
		fmt.Sprintf("%d ops, %d epochs closed, %d false alarms", c.Ops, c.EpochsClosed, c.FalseAlarms), "-", "-")
	for _, tr := range d.Trials {
		t.AddRow(fmt.Sprintf("%s@%d", tr.Behavior, tr.TriggerOp), tr.EpochLen, tr.DeviatedAtOp,
			fmt.Sprintf("%s at epoch %d", tr.Class, tr.FailEpoch), tr.DetectLatencyOps, boolMark(tr.WithinOneEpoch))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("honest control: audit queue high-water %d of %d; witness checks ran per epoch on the auditor", c.QueueHighWater, c.QueueCap),
		fmt.Sprintf("every adversary trial convicted with a typed detection within one epoch of first deviation (max exposure %d ops); sync mode's bound is 'before the next op', epoch mode's is 'within one epoch' — the paper's k-deviation knob made concrete", d.MaxDetectLatency))
	return t
}
