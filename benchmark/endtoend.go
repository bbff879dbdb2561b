package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"trustedcvs"
)

// system is what a round drives: the public surface of
// trustedcvs.Cluster, which the rebuilt stacks in layers.go also offer
// so one load loop serves the end-to-end runs, the traced run and the
// trusted baselines.
type system interface {
	Do(user int, op trustedcvs.Op) (any, error)
	Repo(user int) repo
	WaitIdle(user int, timeout time.Duration) error
	Seal()
	WaitSealed(timeout time.Duration) error
	Err(user int) error
	AuditStats(user int) auditStats
	Close()
}

type repo interface {
	Commit(files map[string][]byte, logMsg string, baseRevs map[string]uint64) ([]trustedcvs.CommitResult, error)
	Checkout(paths ...string) (map[string][]byte, error)
}

// clusterSystem is the system as its users meet it: NewLocalCluster
// over loopback TCP, server and clients in this process.
type clusterSystem struct {
	*trustedcvs.Cluster
	repos [users]*trustedcvs.Repo
}

func newCluster(cfg trustedcvs.ClusterConfig) (system, error) {
	c, err := trustedcvs.NewLocalCluster(cfg)
	if err != nil {
		return nil, err
	}
	s := &clusterSystem{Cluster: c}
	for u := range s.repos {
		s.repos[u] = c.Repo(u, fmt.Sprintf("user%d", u))
	}
	return s, nil
}

func (s *clusterSystem) Repo(u int) repo { return s.repos[u] }

// clusterConfig is the deployment every workload measures: Protocol II
// over TCP, two users, k = 16; the epoch workload adds the auditor and
// its journal.
func clusterConfig(w workload, walRoot string) trustedcvs.ClusterConfig {
	cfg := trustedcvs.ClusterConfig{Users: users, Network: true, SyncEvery: syncEvery, AuditEpoch: w.epoch}
	if w.wal {
		cfg.AuditWALRoot = walRoot
	}
	return cfg
}

const (
	preloadBatch   = 1000 // keys per preload WriteOp
	readBackBatch  = 500  // keys per read-back ReadOp
	checkoutBudget = 8    // attempts before a checkout counts as failed
	waitTimeout    = 60 * time.Second
)

// preload builds the initial state through verified operations, the
// only way the public API offers. The users take turns, so that in
// epoch-audit mode nobody runs an epoch ahead of a silent peer.
func preload(sys system, st *stream, model *cvsModel) error {
	for lo := 0; lo < len(st.preload); lo += preloadBatch {
		hi := lo + preloadBatch
		if hi > len(st.preload) {
			hi = len(st.preload)
		}
		w := &trustedcvs.WriteOp{Puts: make([]trustedcvs.KV, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			w.Puts = append(w.Puts, trustedcvs.KV{Key: keyName(i), Val: st.preload[i]})
		}
		if _, err := sys.Do(lo/preloadBatch%users, w); err != nil {
			return fmt.Errorf("preload keys %d..%d: %w", lo, hi, err)
		}
	}
	for i := range st.files {
		path := fileName(i)
		if _, err := sys.Repo(i%users).Commit(map[string][]byte{path: model.content(i)}, "import", nil); err != nil {
			return fmt.Errorf("preload %s: %w", path, err)
		}
	}
	return nil
}

// roundCfg describes one round: a fresh system, preload, warm-up, a
// timed window of a fixed operation count, and the correctness checks.
type roundCfg struct {
	w     workload
	sz    sizing
	st    *stream
	build func() (system, error)
	tr    *recorder // nil: untraced
}

type roundResult struct {
	setup     time.Duration // build + preload
	wall      time.Duration // timed window
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	liveHeap  uint64 // HeapInuse after a forced GC at the end of the window
	lat       []time.Duration
	commitLat []time.Duration
	coLat     []time.Duration
	attempted int
	failed    int
	retries   int // checkouts that lost the commit/push race and were retried
	fillers   int // operations issued only to keep an epoch-mode peer unblocked
	problems  []string

	drain      time.Duration // epoch mode: queue drain plus seal
	auditStats [users]auditStats
}

func (r *roundResult) ops() int { return r.attempted - r.failed }

// meter accumulates wall time, CPU time and allocation over the
// segments of the timed window.
type meter struct {
	wall, cpu          time.Duration
	mallocs, allocated uint64

	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall += time.Since(m.t0)
	m.cpu += cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs += ms.Mallocs - m.ms0.Mallocs
	m.allocated += ms.TotalAlloc - m.ms0.TotalAlloc
}

type checkoutSeen struct {
	file int
	fp   uint64
}

// userState is what one user's goroutine owns during a round.
type userState struct {
	user int
	repo repo
	pace pacer

	lat, commitLat, coLat []time.Duration
	seen                  []checkoutSeen
	attempted, failed     int
	retries, fillers      int
}

// firstProblem keeps the first thing that went wrong for one user. It
// lives apart from userState because its text derives from transport
// errors: tcvs-lint's verifyflow pass tracks taint per object, and an
// error string stored in the state a user's operations are issued from
// would mark every later operation as built from unverified input.
type firstProblem string

func (p *firstProblem) note(format string, args ...any) {
	if *p == "" {
		*p = firstProblem(fmt.Sprintf(format, args...))
	}
}

// isPushRace recognises the benign window between a peer's verified
// CommitOp and its content Push, in which the head record names a
// revision the content store does not hold yet. See README "Known
// races".
func isPushRace(err error) bool {
	s := err.Error()
	return strings.Contains(s, "no such revision") || strings.Contains(s, "no content for")
}

// pacer spaces retries; layers.go supplies the repo's backoff.
type pacer interface {
	Sleep()
	Reset()
}

var errWrongAnswer = errors.New("answer differs from the benchmark's model")

// issue runs one user operation and checks its answer. content is the
// text a commit uploads.
func (us *userState) issue(sys system, st *stream, model *cvsModel, o op, content []byte) error {
	switch o.kind {
	case opWrite:
		ans, err := sys.Do(us.user, writeOp(o.idx, o.val))
		if err != nil {
			return err
		}
		if wa, ok := ans.(trustedcvs.WriteAnswer); !ok || wa.Put != 1 {
			return errWrongAnswer
		}
	case opRead:
		ans, err := sys.Do(us.user, readOp(o.idx))
		if err != nil {
			return err
		}
		ra, ok := ans.(trustedcvs.ReadAnswer)
		if !ok || len(ra.Results) != 1 || !ra.Results[0].Found || !bytes.Equal(ra.Results[0].Val, st.preload[o.idx]) {
			return errWrongAnswer
		}
	case opCommit:
		path := fileName(o.idx)
		res, err := us.repo.Commit(map[string][]byte{path: content}, "edit", nil)
		if err != nil {
			return err
		}
		if len(res) != 1 || res[0].Conflict {
			return errWrongAnswer
		}
	case opCheckout:
		path := fileName(o.idx)
		for attempt := 1; ; attempt++ {
			files, err := us.repo.Checkout(path)
			if err == nil {
				us.seen = append(us.seen, checkoutSeen{o.idx, model.fingerprint(files[path])})
				break
			}
			if !isPushRace(err) || attempt == checkoutBudget {
				us.pace.Reset()
				return err
			}
			us.retries++
			us.pace.Sleep()
		}
		us.pace.Reset()
	}
	return nil
}

// rendezvous is a one-shot meeting point of the users. In sync mode a
// user simply waits there. In epoch-audit mode it may not: a client
// that goes quiet without sealing withholds its boundary reports, and a
// peer that crosses the next epoch boundary blocks inside Do for good
// (the public API seals all clients at once, so the early one cannot
// seal alone). There a waiting user gives up every nudge, issues one
// filler operation to keep its reports flowing, and comes back; the
// meeting completes at an instant when every user is outside Do.
type rendezvous struct {
	mu      sync.Mutex
	waiting int
	all     chan struct{} // closed once every user is waiting
	nudge   time.Duration // 0: wait however long the others take
}

func newRendezvous(epochMode bool) *rendezvous {
	r := &rendezvous{all: make(chan struct{})}
	if epochMode {
		r.nudge = 20 * time.Millisecond
	}
	return r
}

// arrive reports whether everyone has arrived; false means the caller
// should issue a filler operation and arrive again.
func (r *rendezvous) arrive() bool {
	r.mu.Lock()
	if r.waiting++; r.waiting == users {
		close(r.all)
	}
	r.mu.Unlock()
	if r.nudge == 0 {
		<-r.all
		return true
	}
	timer := time.NewTimer(r.nudge)
	defer timer.Stop()
	select {
	case <-r.all:
		return true
	case <-timer.C:
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.all:
		return true
	default:
		r.waiting--
		return false
	}
}

// meet blocks user u until every user has arrived, issuing filler reads
// of key 0 (epoch workloads are key-value workloads) while it waits.
func (r *rendezvous) meet(sys system, u int, us *userState, problem *firstProblem) {
	for !r.arrive() {
		us.fillers++
		if _, err := sys.Do(u, readOp(0)); err != nil {
			problem.note("user %d filler op: %v", u, err)
		}
	}
}

func runRound(rc roundCfg) (roundResult, error) {
	var res roundResult
	t0 := time.Now()
	sys, err := rc.build()
	if err != nil {
		return res, err
	}
	defer sys.Close()
	var model *cvsModel
	if rc.w.kind == cvsMixed {
		model = newCVSModel(rc.st)
	}
	if err := preload(sys, rc.st, model); err != nil {
		return res, err
	}
	res.setup = time.Since(t0)

	var (
		states   [users]userState
		problems [users]firstProblem
		ready    = newRendezvous(rc.w.epoch > 0)
		finished = newRendezvous(rc.w.epoch > 0)
		start    = make(chan struct{})
	)
	for u := 0; u < users; u++ {
		us := &states[u]
		us.lat = make([]time.Duration, 0, rc.sz.ops)
		us.seen = make([]checkoutSeen, 0, rc.sz.ops+rc.sz.warm)
		us.user, us.repo, us.pace = u, sys.Repo(u), newRetryPacer()
		go func(u int) {
			for i, o := range rc.st.users[u] {
				if i == rc.sz.warm {
					ready.meet(sys, u, us, &problems[u])
					<-start
				}
				timed := i >= rc.sz.warm
				var content []byte
				if o.kind == opCommit {
					content = model.commit(o)
				}
				var root uint64
				if timed && rc.tr != nil {
					root = rc.tr.beginDo(u)
				}
				t0 := time.Now()
				err := us.issue(sys, rc.st, model, o, content)
				t1 := time.Now()
				if root != 0 {
					rc.tr.endDo(u, root, t0, t1)
				}
				if !timed {
					if err != nil {
						problems[u].note("user %d warm-up op %d: %v", u, i, err)
					}
					continue
				}
				us.attempted++
				if err != nil {
					us.failed++
					problems[u].note("user %d op %d: %v", u, i, err)
					continue
				}
				d := t1.Sub(t0)
				us.lat = append(us.lat, d)
				switch o.kind {
				case opCommit:
					us.commitLat = append(us.commitLat, d)
				case opCheckout:
					us.coLat = append(us.coLat, d)
				}
			}
			finished.meet(sys, u, us, &problems[u])
		}(u)
	}
	<-ready.all

	runtime.GC()
	var m meter
	m.start()
	close(start)
	<-finished.all
	if rc.w.epoch > 0 {
		// Only verified answers count: the window stays open until the
		// auditors have replayed everything the users were told.
		tDrain := time.Now()
		for u := 0; u < users; u++ {
			if err := sys.WaitIdle(u, waitTimeout); err != nil {
				res.problems = append(res.problems, fmt.Sprintf("user %d drain: %v", u, err))
			}
		}
		res.drain = time.Since(tDrain)
	}
	m.stop()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.liveHeap = ms.HeapInuse

	for u := range states {
		us := &states[u]
		res.lat = append(res.lat, us.lat...)
		res.commitLat = append(res.commitLat, us.commitLat...)
		res.coLat = append(res.coLat, us.coLat...)
		res.attempted += us.attempted
		res.failed += us.failed
		res.retries += us.retries
		res.fillers += us.fillers
		if problems[u] != "" {
			res.problems = append(res.problems, string(problems[u]))
		}
	}

	// The read-back issues operations, which a sealed client may not,
	// so in epoch mode the clock pauses here and resumes for the seal.
	res.problems = append(res.problems, readBack(sys, rc, model, &states)...)
	if rc.w.epoch > 0 {
		m.start()
		tSeal := time.Now()
		sys.Seal()
		if err := sys.WaitSealed(waitTimeout); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("final epoch closure: %v", err))
		}
		res.drain += time.Since(tSeal)
		m.stop()
	}
	for u := 0; u < users; u++ {
		if err := sys.Err(u); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("false alarm at user %d: %v", u, err))
		}
		res.auditStats[u] = sys.AuditStats(u)
	}
	res.wall, res.cpu, res.mallocs, res.allocated = m.wall, m.cpu, m.mallocs, m.allocated
	sortDurations(res.lat)
	sortDurations(res.commitLat)
	sortDurations(res.coLat)
	return res, nil
}

// readBack compares the system's final state with the benchmark's own
// model and returns what differs.
func readBack(sys system, rc roundCfg, model *cvsModel, states *[users]userState) []string {
	var problems []string
	switch rc.w.kind {
	case kvWrite:
		// Each user reads back, in batches, the keys it wrote. The users
		// take turns batch by batch, and one that runs out keeps pace
		// with filler reads, so that in epoch-audit mode neither falls
		// silent while the other still operates.
		var (
			last    [users]map[int][]byte
			batches [users][][]int
			bad     [users]int
			most    int
		)
		for u := 0; u < users; u++ {
			last[u] = make(map[int][]byte)
			var order []int
			for _, o := range rc.st.users[u] {
				if _, ok := last[u][o.idx]; !ok {
					order = append(order, o.idx)
				}
				last[u][o.idx] = o.val
			}
			for lo := 0; lo < len(order); lo += readBackBatch {
				hi := lo + readBackBatch
				if hi > len(order) {
					hi = len(order)
				}
				batches[u] = append(batches[u], order[lo:hi])
			}
			if len(batches[u]) > most {
				most = len(batches[u])
			}
		}
		for b := 0; b < most; b++ {
			for u := 0; u < users; u++ {
				rd := &trustedcvs.ReadOp{Keys: []string{keyName(0)}}
				var keys []int
				if b < len(batches[u]) {
					keys = batches[u][b]
					rd.Keys = rd.Keys[:0]
					for _, k := range keys {
						rd.Keys = append(rd.Keys, keyName(k))
					}
				} else if rc.w.epoch == 0 {
					continue
				}
				ans, err := sys.Do(u, rd)
				if err != nil {
					return append(problems, fmt.Sprintf("user %d read-back: %v", u, err))
				}
				ra, _ := ans.(trustedcvs.ReadAnswer)
				for i, k := range keys {
					if i >= len(ra.Results) || !bytes.Equal(ra.Results[i].Val, last[u][k]) {
						bad[u]++
					}
				}
			}
		}
		for u, n := range bad {
			if n > 0 {
				problems = append(problems, fmt.Sprintf("user %d read-back: %d keys differ from the last value written", u, n))
			}
		}
	case cvsMixed:
		for u := range states {
			for _, c := range states[u].seen {
				if _, ok := model.committed[c.file][c.fp]; !ok {
					problems = append(problems, fmt.Sprintf("user %d checked out a %s nobody committed", u, fileName(c.file)))
					break
				}
			}
		}
		bad := 0
		for i := range model.lines {
			path := fileName(i)
			files, err := sys.Repo(i % users).Checkout(path)
			if err != nil || !bytes.Equal(files[path], joinLines(model.lines[i])) {
				bad++
			}
		}
		if bad > 0 {
			problems = append(problems, fmt.Sprintf("%d final heads differ from their owner's last commit", bad))
		}
	}
	return problems
}

// epilogue turns the server malicious for a moment: it corrupts one
// answer and must be convicted within k operations in sync mode and
// within one epoch in epoch-audit mode.
func epilogue(epochMode bool) error {
	const trigger, epochLen = 40, 16
	cfg := trustedcvs.ClusterConfig{
		Users: users, Network: true, SyncEvery: syncEvery,
		Malice: trustedcvs.Malice{Behavior: "tamper-answer", TriggerOp: trigger},
	}
	bound := syncEvery
	if epochMode {
		cfg.AuditEpoch = epochLen
		// One epoch may still be open and one more admitted behind it.
		bound = 2 * epochLen
	}
	c, err := trustedcvs.NewLocalCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	var detected error
	// Operation n is the server's (n+1)-th, so n = trigger-1 is the lie.
	for n := 0; n < trigger+bound; n++ {
		u := n % users
		if n >= trigger {
			// Once lied to, only the victim keeps operating: a convicted
			// auditor stops reporting, and in epoch mode its peer would
			// wait for those reports inside Do for good.
			u = (trigger - 1) % users
		}
		_, err := c.Do(u, writeOp(n, []byte("v")))
		if _, ok := trustedcvs.AsDetection(err); ok {
			detected = err
			break
		}
	}
	if detected == nil {
		return fmt.Errorf("tampered answer at op %d not convicted within %d further ops", trigger, bound)
	}
	return nil
}

// tempDir makes a fresh directory under out for a round's journal.
func tempDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "wal-")
}
