package bench

import (
	"errors"
	"fmt"
	"net"
	"time"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/core"
	"trustedcvs/internal/deploy"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// E21 measures overload protection and graceful degradation: an
// open-loop arrival process drives offered load past the server's
// capacity, once against an unprotected deployment (the admission
// controller pinned to a fixed-limit FIFO that never sheds, no
// deadlines) and once against the protected one (bounded priority
// admission queue, adaptive concurrency limit, propagated deadlines).
// Three claims are under test:
//
//  1. Goodput: the unprotected server falls off a cliff — queues grow
//     without bound, every answer arrives after its client gave up,
//     and goodput (operations delivered within their deadline,
//     measured from the op's *scheduled* arrival) collapses below
//     half of peak at ~4x capacity. The protected server sheds the
//     excess with typed refusals before touching any state and holds
//     >= 90% of peak goodput with bounded p99.
//
//  2. Priority: shedding consumes the class ladder bottom-up —
//     background probes are refused first, audit traffic next, user
//     operations last. The refusal fractions per class must be
//     ordered at every overloaded point.
//
//  3. Trust: degradation never weakens detection. Shed operations are
//     atomically refused (the server's op counter advances exactly
//     once per delivered success — zero half-applied ops) and create
//     no audit obligations; adversary trials under flood at every
//     load point still convict with a typed detection, honest runs
//     raise zero false alarms, and every obligation drains
//     (Submitted == Audited) after seal.
//
// Per-operation server work is padded to a fixed synthetic service
// time so capacity is a controlled constant (MaxConcurrent/Service)
// rather than a CPU-noise measurement — the experiment is about
// queueing and shedding behavior, not op microperformance.

// E21Config parameterizes RunE21.
type E21Config struct {
	// DBSize is the number of preloaded keys.
	DBSize int
	// Service is the synthetic per-request service time appended to
	// every admitted request (refused requests never reach it).
	Service time.Duration
	// MaxConcurrent bounds in-flight handlers in both modes: the
	// unprotected fixed limit and the protected admission MaxLimit.
	// Capacity is MaxConcurrent/Service.
	MaxConcurrent int
	// QueueDepth is the protected admission queue bound.
	QueueDepth int
	// Target is the AIMD latency target.
	Target time.Duration
	// Deadline is the client's end-to-end budget: a delivered answer
	// counts toward goodput only within Deadline of its scheduled
	// arrival. Protected clients propagate it in the frame header.
	Deadline time.Duration
	// Window is the open-loop measurement window per sweep cell.
	Window time.Duration
	// Workers is the load-generator pool size per cell.
	Workers int
	// Factors are the offered-load multiples of measured capacity.
	Factors []float64
	// TrialFactors are the load points the adversary trials run at.
	TrialFactors []float64
	// TrialUsers / TrialEpochLen / TrialFlood shape the verified
	// epoch-audit deployments of the trial phase: TrialFlood is the
	// flood worker count pressuring the server during each trial.
	TrialUsers    int
	TrialEpochLen uint64
	TrialFlood    int
}

// DefaultE21Config is what cmd/tcvs-bench runs.
func DefaultE21Config() E21Config {
	return E21Config{
		DBSize: 300, Service: 1500 * time.Microsecond, MaxConcurrent: 8,
		QueueDepth: 64, Target: 20 * time.Millisecond,
		Deadline: 250 * time.Millisecond, Window: 2500 * time.Millisecond,
		Workers: 192, Factors: []float64{0.5, 1, 2, 4},
		// 128 flood connections against a 64-deep queue: the trials run
		// with the admission queue saturated and refusals actually
		// happening, not merely with the service slots busy.
		TrialFactors: []float64{1, 2, 4},
		TrialUsers:   3, TrialEpochLen: 24, TrialFlood: 128,
	}
}

// E21Point is one measured (mode, factor) cell of the open-loop sweep.
type E21Point struct {
	Mode             string // unprotected | protected
	Factor           float64
	OfferedOpsPerSec float64
	// Attempted counts scheduled arrivals per class; Delivered the
	// answered ones; Missed arrivals the window closed on before the
	// (backlogged) generator could even issue them.
	Attempted map[string]uint64
	Delivered map[string]uint64
	Missed    uint64
	// Shed / Expired count typed refusals per class as the clients
	// observed them; RefusedFrac is (shed+expired+missed-at-issue)
	// over attempted — the per-class starvation metric the priority
	// ordering is judged on.
	Shed        map[string]uint64
	Expired     map[string]uint64
	RefusedFrac map[string]float64
	Faults      uint64
	// Goodput counts user operations delivered within Deadline of
	// their scheduled arrival; latency percentiles cover every
	// delivered user op (late ones included — that is the cliff).
	WithinDeadline   uint64
	GoodputOpsPerSec float64
	P50Millis        float64
	P99Millis        float64
	// Atomicity: the server's op counter must advance exactly once
	// per delivered user success — shed ops touch nothing.
	ServerOpsApplied  uint64
	UserOpSuccesses   uint64
	AtomicSheds       bool
	AdmissionLimit    int
	QueueHighWater    int
	ServerShedTotal   uint64
	ServerExpireTotal uint64
}

// E21Trial is one verified epoch-audit deployment run under flood at
// one load point, honest or adversarial.
type E21Trial struct {
	Factor     float64
	Behavior   string // honest | fork
	Detected   bool
	Class      string
	FalseAlarm bool
	Submitted  uint64
	Audited    uint64
	Dangling   uint64
	ShedDuring uint64
}

// E21Data is the full experiment result.
type E21Data struct {
	DBSize            int
	ServiceMicros     int64
	MaxConcurrent     int
	QueueDepth        int
	DeadlineMillis    int64
	WindowMillis      int64
	Workers           int
	CapacityOpsPerSec float64
	Points            []E21Point
	// PeakGoodput is each mode's best goodput across the sweep; the
	// acceptance ratios are taken against a mode's own peak.
	PeakGoodput         map[string]float64
	UnprotectedAtTop    float64
	ProtectedAtTop      float64
	UnprotectedCollapse bool // top-factor goodput < 50% of peak
	ProtectedHolds      bool // top-factor goodput >= 90% of peak
	ProtectedP99Bounded bool
	ShedInOrder         bool
	AllAtomic           bool
	Trials              []E21Trial
	AllConvicted        bool
	FalseAlarms         int
	ZeroDangling        bool
}

// e21Deploy deploys hs behind TCP with the synthetic service pad and
// the given epoch-audit client population. In protected mode the
// adaptive limit, the bounded queue and the priority classifier are
// armed (clients propagate deadlines). Unprotected mode is the same
// governor pinned to a fixed-limit FIFO: limit MaxConcurrent, a queue
// deeper than every generator connection can fill, so it never sheds,
// and no classifier (clients send no budgets).
func e21Deploy(cfg E21Config, hs server.Server, protected bool, users int, epochLen uint64) (*deploy.Deployment, error) {
	opts := transport.Options{IdleTimeout: -1, Admission: transport.AdmissionOptions{
		MinLimit: cfg.MaxConcurrent, MaxLimit: cfg.MaxConcurrent,
		QueueDepth: max(cfg.Workers, 2*cfg.MaxConcurrent),
	}}
	if protected {
		opts.Admission = transport.AdmissionOptions{
			Target: cfg.Target, MaxLimit: cfg.MaxConcurrent, QueueDepth: cfg.QueueDepth,
		}
		opts.Classify = driver.Classify
	}
	return deployTCP(deploy.Config{
		Server: hs, Users: users, EpochLen: epochLen, Options: opts,
		Wrap: func(inner transport.Handler) transport.Handler {
			return func(req any) (any, error) {
				resp, err := inner(req)
				if cfg.Service > 0 {
					time.Sleep(cfg.Service)
				}
				return resp, err
			}
		},
	})
}

// e21Dial opens n raw wire connections for a load generator's workers.
func e21Dial(addr string, n int) ([]*wire.Conn, error) {
	conns := make([]*wire.Conn, 0, n)
	for len(conns) < n {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			e21Hangup(conns)
			return nil, err
		}
		conns = append(conns, wire.NewConn(nc))
	}
	return conns, nil
}

func e21Hangup(conns []*wire.Conn) {
	for _, c := range conns {
		c.Close()
	}
}

// e21Redial replaces worker i's connection after a transport fault,
// which may have poisoned the stream.
func e21Redial(conns []*wire.Conn, i int, addr string) error {
	conns[i].Close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	conns[i] = wire.NewConn(nc)
	return nil
}

// e21Capacity measures peak capacity with a short closed loop of pure
// user operations against the unprotected deployment.
func e21Capacity(cfg E21Config) (float64, error) {
	dep, err := e21Deploy(cfg, server.NewP2(seedDB(cfg.DBSize)), false, 0, 0)
	if err != nil {
		return 0, err
	}
	defer dep.Close()
	W := 2 * cfg.MaxConcurrent
	conns, err := e21Dial(dep.TCP.Addr(), W)
	if err != nil {
		return 0, err
	}
	defer e21Hangup(conns)
	res := load{
		workers: W, window: time.Second,
		op: func(a arrival) (bool, error) {
			req := &core.OpRequest{User: sig.UserID(1000 + a.worker), Op: benchOp(a.worker+a.seq*W, cfg.DBSize)}
			_, err := conns[a.worker].Call(req)
			return true, err
		},
	}.run()
	return float64(len(res.pooled())) / res.elapsed.Seconds(), res.err()
}

// e21Request maps arrival k onto the offered mix: 80% user write ops,
// 10% audit-class backup fetches, 10% background probes (a request
// type the handler does not serve — the classifier's bottom class).
func e21Request(k, worker, dbSize int) (transport.Priority, any) {
	switch k % 10 {
	case 8:
		return transport.PriorityAudit, &core.GetBackupsRequest{}
	case 9:
		return transport.PriorityBackground, &core.SyncRequest{From: sig.UserID(1000 + worker), Round: uint64(k)}
	default:
		return transport.PriorityUser, &core.OpRequest{User: sig.UserID(1000 + worker), Op: benchOp(k, dbSize)}
	}
}

// e21Counts is one generator worker's tally.
type e21Counts struct {
	attempted [transport.NumPriorities]uint64
	delivered [transport.NumPriorities]uint64
	shed      [transport.NumPriorities]uint64
	expired   [transport.NumPriorities]uint64
	missed    uint64
	faults    uint64
}

// e21Cell runs one open-loop sweep cell: Workers generators issue the
// mixed workload on the shared arrival grid (arrival k is scheduled at
// start + k/rate and charged latency from that instant, issued or
// not), against a fresh deployment in the given mode.
func e21Cell(cfg E21Config, protected bool, factor, capacity float64) (E21Point, error) {
	db := seedDB(cfg.DBSize)
	dep, err := e21Deploy(cfg, server.NewP2(db), protected, 0, 0)
	if err != nil {
		return E21Point{}, err
	}
	defer dep.Close()

	rate := factor * capacity
	W := cfg.Workers
	conns, err := e21Dial(dep.TCP.Addr(), W)
	if err != nil {
		return E21Point{}, err
	}
	defer e21Hangup(conns)
	counts := make([]e21Counts, W)
	startCtr := db.Ctr()
	res := load{
		workers: W, window: cfg.Window,
		interval: time.Duration(float64(W) / rate * float64(time.Second)),
		op: func(a arrival) (bool, error) {
			c := &counts[a.worker]
			class, req := e21Request(a.worker+a.seq*W, a.worker, cfg.DBSize)
			c.attempted[class]++
			if a.missed {
				c.missed++
				return false, nil
			}
			var budget time.Duration
			if protected {
				// The budget is what remains of the op's end-to-end
				// deadline; a backlogged generator gives up client-side
				// exactly as a real caller would.
				if budget = time.Until(a.sched.Add(cfg.Deadline)); budget <= 0 {
					c.expired[class]++
					return false, nil
				}
			}
			_, err := conns[a.worker].CallBudget(req, budget)
			switch {
			case errors.Is(err, wire.ErrOverloaded):
				c.shed[class]++
			case errors.Is(err, wire.ErrDeadlineExceeded):
				c.expired[class]++
			case err == nil, class != transport.PriorityUser && errors.Is(err, wire.ErrRemote):
				// Audit/background probes are answered with a plain
				// remote refusal (unsupported under P2 / unknown type);
				// delivery of the verdict is the outcome being measured.
				// Only user ops are timed.
				c.delivered[class]++
				return class == transport.PriorityUser, nil
			case errors.Is(err, wire.ErrRemote):
				c.faults++ // user op rejected by the handler: not load-related
			default:
				c.faults++
				return false, e21Redial(conns, a.worker, dep.TCP.Addr())
			}
			return false, nil
		},
	}.run()
	if err := res.err(); err != nil {
		return E21Point{}, err
	}

	mode := "unprotected"
	if protected {
		mode = "protected"
	}
	pt := E21Point{Mode: mode, Factor: factor, OfferedOpsPerSec: rate, RefusedFrac: map[string]float64{}}
	var total e21Counts
	for i := range counts {
		c := &counts[i]
		for p := range total.attempted {
			total.attempted[p] += c.attempted[p]
			total.delivered[p] += c.delivered[p]
			total.shed[p] += c.shed[p]
			total.expired[p] += c.expired[p]
		}
		pt.Missed += c.missed
		pt.Faults += c.faults
	}
	// Only the classes the mix offered appear in the point's maps.
	byClass := func(n [transport.NumPriorities]uint64) map[string]uint64 {
		m := map[string]uint64{}
		for p, att := range total.attempted {
			if att > 0 {
				m[transport.Priority(p).String()] = n[p]
			}
		}
		return m
	}
	pt.Attempted, pt.Delivered = byClass(total.attempted), byClass(total.delivered)
	pt.Shed, pt.Expired = byClass(total.shed), byClass(total.expired)
	for class, att := range pt.Attempted {
		pt.RefusedFrac[class] = float64(att-pt.Delivered[class]) / float64(att)
	}
	lats := res.pooled()
	for _, lat := range lats {
		if lat <= cfg.Deadline {
			pt.WithinDeadline++
		}
	}
	pt.GoodputOpsPerSec = float64(pt.WithinDeadline) / cfg.Window.Seconds()
	p50, p99 := percentiles(lats)
	pt.P50Millis = float64(p50) / float64(time.Millisecond)
	pt.P99Millis = float64(p99) / float64(time.Millisecond)
	pt.ServerOpsApplied = db.Ctr() - startCtr
	pt.UserOpSuccesses = total.delivered[transport.PriorityUser]
	pt.AtomicSheds = pt.ServerOpsApplied == pt.UserOpSuccesses
	if protected {
		st := dep.TCP.AdmissionStats()
		pt.AdmissionLimit = st.Limit
		pt.QueueHighWater = st.HighWater
		for p := range st.Shed {
			pt.ServerShedTotal += st.Shed[p]
			pt.ServerExpireTotal += st.Expired[p]
		}
	}
	return pt, nil
}

// e21Flood pressures a protected deployment with counter-neutral
// traffic (audit-class backup fetches and background probes) at the
// given rate, one worker per connection, until stop closes.
// Counter-neutral matters: the trial's verified clients run the
// closure check over the whole history, and a flood that advanced the
// op counter with transitions no auditor covers would fail closure — a
// false alarm manufactured by the harness, not the server.
func e21Flood(cfg E21Config, conns []*wire.Conn, addr string, rate float64, stop <-chan struct{}) {
	F := len(conns)
	load{
		workers: F, interval: time.Duration(float64(F) / rate * float64(time.Second)), stop: stop,
		op: func(a arrival) (bool, error) {
			k := a.worker + a.seq*F
			var req any = &core.GetBackupsRequest{}
			if k%3 == 0 {
				req = &core.SyncRequest{From: sig.UserID(2000 + a.worker), Round: uint64(k)}
			}
			if _, err := conns[a.worker].CallBudget(req, cfg.Deadline); err != nil && !errors.Is(err, wire.ErrRemote) &&
				!errors.Is(err, wire.ErrOverloaded) && !errors.Is(err, wire.ErrDeadlineExceeded) {
				// Transport fault (likely shutdown): redial or stop.
				return false, e21Redial(conns, a.worker, addr)
			}
			return false, nil
		},
	}.run()
}

// e21TrialRun deploys a verified epoch-audit cluster over a protected
// server, floods it at factor x capacity, and runs either the honest
// control (no detection, every obligation drained) or the Fork
// adversary (typed conviction required despite the overload).
func e21TrialRun(cfg E21Config, factor, capacity float64, malicious bool) (E21Trial, error) {
	users := cfg.TrialUsers
	epochLen := cfg.TrialEpochLen
	trigger := epochLen + epochLen/2
	tr := E21Trial{Factor: factor, Behavior: "honest"}
	var srv server.Server = server.NewP2(vdb.New(0))
	if malicious {
		tr.Behavior = "fork"
		srv = adversary.Wrap(srv, adversary.Config{
			Kind: adversary.Fork, TriggerOp: trigger,
			GroupB: map[sig.UserID]bool{sig.UserID(users - 1): true},
		})
	}
	dep, err := e21Deploy(cfg, srv, true, users, epochLen)
	if err != nil {
		return E21Trial{}, err
	}
	defer dep.Close()

	conns, err := e21Dial(dep.TCP.Addr(), cfg.TrialFlood)
	if err != nil {
		return E21Trial{}, err
	}
	stop, flooded := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flooded)
		e21Flood(cfg, conns, dep.TCP.Addr(), factor*capacity, stop)
	}()
	defer func() {
		close(stop)
		<-flooded
		e21Hangup(conns)
	}()

	perUser := int(trigger+2*epochLen)/users + 1
	wdone := trialWorkload(dep.Clients, perUser, func(w, j int) vdb.Op { return putOp(fmt.Sprintf("t%d-%d", w, j)) })
	if malicious {
		eaf, err := awaitConviction(dep, wdone, 90*time.Second)
		if err != nil {
			return E21Trial{}, fmt.Errorf("E21 fork@%.0fx: %w", factor, err)
		}
		tr.Detected, tr.Class = true, detectionClass(eaf)
	} else {
		<-wdone
		tr.FalseAlarm = dep.Drain(90*time.Second) > 0
	}
	for _, dc := range dep.Clients {
		st := dc.Audit().Stats()
		tr.Submitted += st.Submitted
		tr.Audited += st.Audited
	}
	if !malicious {
		// A convicted auditor legitimately stops mid-queue; only the
		// honest control demands a full drain.
		tr.Dangling = tr.Submitted - tr.Audited
	}
	st := dep.TCP.AdmissionStats()
	for p := range st.Shed {
		tr.ShedDuring += st.Shed[p] + st.Expired[p]
	}
	return tr, nil
}

// RunE21 runs the full experiment.
func RunE21(cfg E21Config) (*E21Data, error) {
	d := &E21Data{
		DBSize: cfg.DBSize, ServiceMicros: cfg.Service.Microseconds(),
		MaxConcurrent: cfg.MaxConcurrent, QueueDepth: cfg.QueueDepth,
		DeadlineMillis: cfg.Deadline.Milliseconds(), WindowMillis: cfg.Window.Milliseconds(),
		Workers: cfg.Workers, PeakGoodput: map[string]float64{},
	}
	capacity, err := e21Capacity(cfg)
	if err != nil {
		return nil, fmt.Errorf("E21 capacity: %w", err)
	}
	d.CapacityOpsPerSec = capacity

	d.AllAtomic, d.ShedInOrder = true, true
	top := cfg.Factors[len(cfg.Factors)-1]
	var topPoint = map[string]E21Point{}
	for _, mode := range []string{"unprotected", "protected"} {
		for _, f := range cfg.Factors {
			pt, err := e21Cell(cfg, mode == "protected", f, capacity)
			if err != nil {
				return nil, fmt.Errorf("E21 %s/%gx: %w", mode, f, err)
			}
			d.Points = append(d.Points, pt)
			if pt.GoodputOpsPerSec > d.PeakGoodput[mode] {
				d.PeakGoodput[mode] = pt.GoodputOpsPerSec
			}
			if f == top {
				topPoint[mode] = pt
			}
			if mode == "protected" {
				d.AllAtomic = d.AllAtomic && pt.AtomicSheds
				if pt.ServerShedTotal > 0 {
					const eps = 0.02
					fr := pt.RefusedFrac
					if fr["background"]+eps < fr["audit"] || fr["audit"]+eps < fr["user"] {
						d.ShedInOrder = false
					}
				}
			}
		}
	}
	if p := d.PeakGoodput["unprotected"]; p > 0 {
		d.UnprotectedAtTop = topPoint["unprotected"].GoodputOpsPerSec / p
	}
	if p := d.PeakGoodput["protected"]; p > 0 {
		d.ProtectedAtTop = topPoint["protected"].GoodputOpsPerSec / p
	}
	d.UnprotectedCollapse = d.UnprotectedAtTop < 0.5
	d.ProtectedHolds = d.ProtectedAtTop >= 0.9
	d.ProtectedP99Bounded = topPoint["protected"].P99Millis <= float64(cfg.Deadline.Milliseconds())
	// The ordering must also be strict where it matters most: at the
	// top factor the bottom class starves harder than user ops.
	if tp := topPoint["protected"]; tp.RefusedFrac["background"] <= tp.RefusedFrac["user"] {
		d.ShedInOrder = false
	}

	d.AllConvicted, d.ZeroDangling = true, true
	for _, f := range cfg.TrialFactors {
		for _, malicious := range []bool{false, true} {
			tr, err := e21TrialRun(cfg, f, capacity, malicious)
			if err != nil {
				return nil, err
			}
			d.Trials = append(d.Trials, tr)
			if tr.Behavior == "fork" && !tr.Detected {
				d.AllConvicted = false
			}
			if tr.FalseAlarm {
				d.FalseAlarms++
			}
			if tr.Dangling > 0 {
				d.ZeroDangling = false
			}
		}
	}
	return d, nil
}

// Table renders the data as the E21 exhibit.
func (d *E21Data) Table() *Table {
	t := &Table{
		ID:       "E21",
		Title:    "Overload protection: open-loop sweep to 4x capacity, unprotected vs protected",
		PaperRef: "robustness of the detection guarantees at saturation; DESIGN.md \"Overload & graceful degradation\"",
		Columns:  []string{"mode", "xcap", "offered/s", "goodput/s", "p50-ms", "p99-ms", "refused u/a/b %", "atomic"},
	}
	for _, p := range d.Points {
		fr := func(c string) string { return fmt.Sprintf("%.0f", 100*p.RefusedFrac[c]) }
		t.AddRow(p.Mode, p.Factor, int(p.OfferedOpsPerSec), int(p.GoodputOpsPerSec),
			fmt.Sprintf("%.1f", p.P50Millis), fmt.Sprintf("%.1f", p.P99Millis),
			fr("user")+"/"+fr("audit")+"/"+fr("background"), boolMark(p.AtomicSheds))
	}
	for _, tr := range d.Trials {
		verdict := "clean"
		if tr.Behavior != "honest" {
			verdict = tr.Class
		}
		t.AddRow(fmt.Sprintf("trial %s", tr.Behavior), tr.Factor, "-", "-",
			fmt.Sprintf("shed=%d", tr.ShedDuring),
			fmt.Sprintf("oblig=%d/%d", tr.Audited, tr.Submitted),
			verdict, boolMark(!tr.FalseAlarm && tr.Dangling == 0))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("capacity %.0f ops/s (MaxConcurrent %d x %dus synthetic service); goodput counts user ops delivered within %dms of their scheduled open-loop arrival",
			d.CapacityOpsPerSec, d.MaxConcurrent, d.ServiceMicros, d.DeadlineMillis),
		fmt.Sprintf("at %gx capacity the unprotected server delivers %.0f%% of its peak goodput (acceptance: < 50%%); the protected server holds %.0f%% (acceptance: >= 90%%) with p99 bounded by the deadline: %v",
			4.0, 100*d.UnprotectedAtTop, 100*d.ProtectedAtTop, d.ProtectedP99Bounded),
		fmt.Sprintf("classes shed in priority order (background first, user last): %v; every shed atomically refused (server counter == delivered successes): %v",
			d.ShedInOrder, d.AllAtomic),
		fmt.Sprintf("adversary trials under flood: all convicted %v, false alarms %d, dangling obligations after drain: zero=%v",
			d.AllConvicted, d.FalseAlarms, d.ZeroDangling))
	return t
}
