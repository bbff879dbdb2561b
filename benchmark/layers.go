package main

// This is the only file of the benchmark that imports internal/*
// packages. README.md lists every function it calls, so an API
// refactor breaks one file. It holds three things: the stack rebuilt
// from the internal constructors the way cluster.go builds it, wrapped
// at the transport.Caller and transport.Handler seams; the stage probes
// that time each layer's public entry points from outside; and the
// traced run that combines them into the per-layer metrics.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"trustedcvs"
	"trustedcvs/internal/audit"
	"trustedcvs/internal/backoff"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/diff"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wal"
	"trustedcvs/internal/wire"
)

type auditStats = audit.Stats

// newRetryPacer paces checkout retries through the repo's one backoff
// primitive (the sleepretry lint bans bare sleep loops).
func newRetryPacer() pacer {
	return backoff.New(backoff.Policy{Min: 200 * time.Microsecond, Max: 5 * time.Millisecond}, backoff.NewSource())
}

// ---------------------------------------------------------------------
// The rebuilt stack
// ---------------------------------------------------------------------

// stackOpts selects which variant of the Protocol II deployment to
// assemble. The zero value is cluster.go's Network deployment.
type stackOpts struct {
	syncEvery uint64
	epoch     uint64    // > 0: epoch-audit clients
	walRoot   string    // non-empty: journal obligations under walRoot/user-<i>
	inproc    bool      // in-process transport and hub instead of loopback TCP
	trusted   bool      // trusted-server floor: ApplyPlain, no VO, no verification
	rec       *recorder // non-nil: record spans at both seams
}

// stack is the deployment NewLocalCluster builds, assembled here from
// the same constructors so the two seams can be wrapped. It differs in
// one respect: every user gets its own listener (sharing one handler),
// which lets the server-side wrapper know whose request it is handling
// without reading the message.
type stack struct {
	servers []*transport.Server
	hub     *broadcast.Hub
	tcpHub  *broadcast.HubServer
	clients [users]*driver.Client // nil for the trusted floor
	floor   [users]*trustedClient // nil for verified stacks
	repos   [users]*cvs.Client
}

func newStack(o stackOpts) (*stack, error) {
	db := vdb.New(0)
	store := cvs.NewStore()
	var handler transport.Handler
	if o.trusted {
		handler = trustedHandler(db, store)
	} else {
		handler = driver.NewHandler(server.NewP2(db), store)
	}
	s := &stack{}
	var join func() (broadcast.Channel, error)
	switch {
	case o.trusted:
	case o.inproc:
		s.hub = broadcast.NewHub()
		join = func() (broadcast.Channel, error) { return s.hub.Join(), nil }
	default:
		hs, err := broadcast.ListenHub("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.tcpHub = hs
		join = func() (broadcast.Channel, error) { return broadcast.DialHub(hs.Addr()) }
		if o.walRoot != "" {
			join = func() (broadcast.Channel, error) { return broadcast.DialHubResume(hs.Addr()), nil }
		}
	}
	for u := 0; u < users; u++ {
		h := handler
		if o.rec != nil {
			h = tracedHandler(o.rec, u, handler)
		}
		var conn transport.Caller
		if o.inproc {
			conn = transport.NewInproc(h)
		} else {
			ts, err := transport.Listen("127.0.0.1:0", h)
			if err != nil {
				s.Close()
				return nil, err
			}
			s.servers = append(s.servers, ts)
			if conn, err = transport.Dial(ts.Addr()); err != nil {
				s.Close()
				return nil, err
			}
		}
		if o.rec != nil {
			conn = &tracedCaller{inner: conn, rec: o.rec, user: u}
		}
		author := fmt.Sprintf("user%d", u)
		if o.trusted {
			tc := newTrustedClient(conn, sig.UserID(u))
			s.floor[u] = tc
			s.repos[u] = cvs.NewClient(tc, tc, author, nil)
			continue
		}
		bc, err := join()
		if err != nil {
			conn.Close()
			s.Close()
			return nil, err
		}
		usr := proto2.NewUser(sig.UserID(u), db.Root(), o.syncEvery)
		var dc *driver.Client
		if o.epoch > 0 {
			walDir := ""
			if o.walRoot != "" {
				walDir = filepath.Join(o.walRoot, fmt.Sprintf("user-%d", u))
			}
			if dc, err = driver.NewP2EpochWAL(usr, conn, bc, users, o.epoch, 0, walDir, nil); err != nil {
				bc.Close()
				conn.Close()
				s.Close()
				return nil, err
			}
		} else {
			dc = driver.NewP2(usr, conn, bc, users)
		}
		s.clients[u] = dc
		s.repos[u] = cvs.NewClient(dc, dc, author, nil)
	}
	if s.tcpHub != nil {
		// As cluster.go: let the TCP hub register every subscriber
		// before sync traffic flows.
		time.Sleep(50 * time.Millisecond)
	}
	return s, nil
}

func (s *stack) Do(u int, op trustedcvs.Op) (any, error) {
	if s.floor[u] != nil {
		return s.floor[u].Do(op)
	}
	return s.clients[u].Do(op)
}

func (s *stack) Repo(u int) repo { return s.repos[u] }

func (s *stack) WaitIdle(u int, timeout time.Duration) error {
	if s.clients[u] == nil {
		return nil
	}
	return s.clients[u].WaitIdle(timeout)
}

func (s *stack) Seal() {
	for _, c := range s.clients {
		if c != nil {
			c.Seal()
		}
	}
}

func (s *stack) WaitSealed(timeout time.Duration) error {
	for _, c := range s.clients {
		if c == nil {
			continue
		}
		if err := c.WaitSealed(timeout); err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) Err(u int) error {
	if s.clients[u] == nil {
		return nil
	}
	return s.clients[u].Err()
}

func (s *stack) AuditStats(u int) auditStats {
	if c := s.clients[u]; c != nil && c.Audit() != nil {
		return c.Audit().Stats()
	}
	return auditStats{}
}

func (s *stack) Close() {
	for u := 0; u < users; u++ {
		if s.clients[u] != nil {
			s.clients[u].Close()
		}
		if s.floor[u] != nil {
			s.floor[u].close()
		}
	}
	if s.hub != nil {
		s.hub.Close()
	}
	if s.tcpHub != nil {
		s.tcpHub.Close()
	}
	for _, ts := range s.servers {
		ts.Close()
	}
}

// tracedCaller is the client-side seam: one transport.call span per
// request the user's driver sends.
type tracedCaller struct {
	inner transport.Caller
	rec   *recorder
	user  int
}

func (c *tracedCaller) Call(req any) (any, error) {
	sp, ok := c.rec.beginCall(c.user)
	resp, err := c.inner.Call(req)
	if ok {
		c.rec.endCall(sp)
	}
	return resp, err
}

func (c *tracedCaller) Close() error { return c.inner.Close() }

// tracedHandler is the server-side seam: one server.handle span per
// request arriving on user u's connection.
func tracedHandler(rec *recorder, u int, h transport.Handler) transport.Handler {
	return func(req any) (any, error) {
		sp, ok := rec.beginHandle(u)
		resp, err := h(req)
		if ok {
			rec.endHandle(sp)
		}
		return resp, err
	}
}

// trustedHandler is the trusted-server floor: operations run through
// ApplyPlain with no verification object; content requests go to the
// same store the verified handler uses.
func trustedHandler(db *vdb.DB, store *cvs.Store) transport.Handler {
	// Only content requests reach this handler, so it needs no
	// protocol server.
	content := driver.NewHandler(nil, store)
	return func(req any) (any, error) {
		r, ok := req.(*core.OpRequest)
		if !ok {
			return content(req)
		}
		ans, err := db.ApplyPlain(r.Op)
		if err != nil {
			return nil, err
		}
		return &core.OpResponseII{Answer: ans}, nil
	}
}

// trustedClient is what a client of a trusted server does: send the
// operation, decode the answer, believe it.
//
// It reaches its connection through a method value, not a
// transport.Caller field. tcvs-lint's verifyflow pass (which scans this
// directory despite the nested go.mod) treats every Caller.Call result
// as untrusted and follows static callees only. A Doer that believes
// such a result is exactly what this floor is, and the pass then
// reports every place the shared cvs.Doer / system interfaces could
// carry its answers to. Harnesses outside the trust boundary
// (internal/baseline, internal/bench) are excluded from that pass by
// path, a list this PR may not extend; until `benchmark` is on it, the
// indirection stands in for the exclusion. No verified stack ever sees
// a floor's answers: a stack is trusted or verified as a whole.
type trustedClient struct {
	call  func(req any) (any, error)
	close func() error
	id    sig.UserID
}

func newTrustedClient(conn transport.Caller, id sig.UserID) *trustedClient {
	return &trustedClient{call: conn.Call, close: conn.Close, id: id}
}

func (c *trustedClient) Do(op vdb.Op) (any, error) {
	resp, err := c.call(&core.OpRequest{User: c.id, Op: op})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(*core.OpResponseII)
	if !ok {
		return nil, fmt.Errorf("trusted floor: response %T", resp)
	}
	return vdb.DecodeAnswer(r.Answer)
}

func (c *trustedClient) Push(path string, rev uint64, content []byte) error {
	_, err := c.call(&core.PushContentRequest{Path: path, Rev: rev, Content: content})
	return err
}

func (c *trustedClient) Fetch(path string, rev uint64, hash digest.Digest) ([]byte, error) {
	resp, err := c.call(&core.FetchContentRequest{Path: path, Rev: rev, Hash: hash})
	if err != nil {
		return nil, err
	}
	cr, ok := resp.(*core.ContentResponse)
	if !ok {
		return nil, fmt.Errorf("trusted floor: fetch returned %T", resp)
	}
	return cr.Content, nil
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

// traceShare is the part of a round's timed operation count a traced
// run issues.
const traceShare = 3

// traceSizing is the round a traced run issues: the same data, a
// third of the timed operations.
func (c config) traceSizing() sizing {
	sz := c.sizing()
	sz.ops /= traceShare
	return sz
}

// prefix returns the stream cut to sz.warm + sz.ops operations per
// user: a traced run replays the beginning of the same stream.
func (st *stream) prefix(sz sizing) *stream {
	cut := *st
	for u := range cut.users {
		cut.users[u] = st.users[u][:sz.warm+sz.ops]
	}
	return &cut
}

// tracedRun produces every per-layer metric for cfg.w. It runs the
// workload untraced and traced at a third of the round size, the
// trusted floors, two companion rounds that feed the cvs.* and audit.*
// metrics when cfg.w is not itself that workload, and the stage probes.
func tracedRun(cfg config, st *stream, log io.Writer) (result, []string, error) {
	m := make(map[string]metric)
	var problems []string
	note := func(name string, r roundResult) {
		fmt.Fprintf(log, "# %s %s: setup %.2fs, %d ops in %.2fs\n", cfg.w.name, name, r.setup.Seconds(), r.ops(), r.wall.Seconds())
		for _, p := range r.problems {
			problems = append(problems, name+": "+p)
		}
	}

	// Untraced rounds at trace size, one per workload that feeds a
	// metric group; cfg.w's own round doubles as the tracing reference.
	untraced := func(w workload) (roundResult, error) {
		c, wst := cfg, st
		if w.name != cfg.w.name {
			c.w = w
			wst = generate(w, c.sizing(), cfg.seed)
		}
		sz := c.traceSizing()
		r, err := endToEndRound(c, sz, wst.prefix(sz))
		if err == nil {
			note("untraced "+w.name, r)
		}
		return r, err
	}
	ref, err := untraced(cfg.w)
	if err != nil {
		return result{}, nil, err
	}
	cvsRound, auditRound := ref, ref
	for _, w := range workloads {
		switch {
		case w.name == cfg.w.name:
		case w.kind == cvsMixed:
			if cvsRound, err = untraced(w); err != nil {
				return result{}, nil, err
			}
		case w.epoch > 0:
			if auditRound, err = untraced(w); err != nil {
				return result{}, nil, err
			}
		}
	}

	sz := cfg.traceSizing()
	cut := st.prefix(sz)
	round := func(name string, o stackOpts) (roundResult, error) {
		var walRoot string
		if cfg.w.wal && !o.trusted && !o.inproc {
			dir, err := tempDir(cfg.out)
			if err != nil {
				return roundResult{}, err
			}
			defer os.RemoveAll(dir)
			walRoot = dir
		}
		o.syncEvery, o.walRoot = syncEvery, walRoot
		if !o.trusted {
			o.epoch = cfg.w.epoch
		}
		r, err := runRound(roundCfg{w: cfg.w, sz: sz, st: cut, tr: o.rec,
			build: func() (system, error) { return newStack(o) }})
		if err == nil {
			note(name, r)
		}
		return r, err
	}

	rec := newRecorder(sz.ops)
	traced, err := round("traced", stackOpts{rec: rec})
	if err != nil {
		return result{}, nil, err
	}
	spans := rec.spans()
	if err := writeSpans(cfg.out, cfg.w.name, spans); err != nil {
		return result{}, nil, err
	}
	ts := analyse(spans)
	if ts.orphanSpans > 0 {
		problems = append(problems, fmt.Sprintf("%d spans have no recorded parent", ts.orphanSpans))
	}
	m["driver.do_self_us"] = metric{ts.doSelfUS, "us"}
	m["transport.call_self_us"] = metric{ts.callSelfUS, "us"}
	m["transport.calls_per_op"] = metric{ts.callsPerOp, "count"}
	m["server.handle_us"] = metric{ts.handleUS, "us"}
	m["trace.overhead_frac"] = metric{1 - opsPerS(traced)/opsPerS(ref), "frac"}

	floorTCP, err := round("trusted tcp", stackOpts{trusted: true})
	if err != nil {
		return result{}, nil, err
	}
	inproc, err := round("verified inproc", stackOpts{inproc: true})
	if err != nil {
		return result{}, nil, err
	}
	floorInproc, err := round("trusted inproc", stackOpts{inproc: true, trusted: true})
	if err != nil {
		return result{}, nil, err
	}
	m["baseline.trusted_tcp_ops_per_s"] = metric{opsPerS(floorTCP), "1/s"}
	m["baseline.trusted_tcp_p50_us"] = metric{micros(quantile(floorTCP.lat, 0.5)), "us"}
	m["baseline.overhead_x_tcp"] = metric{opsPerS(floorTCP) / opsPerS(ref), "x"}
	m["baseline.overhead_x_inproc"] = metric{opsPerS(floorInproc) / opsPerS(inproc), "x"}

	m["cvs.commit_p50_us"] = metric{micros(quantile(cvsRound.commitLat, 0.5)), "us"}
	m["cvs.checkout_p50_us"] = metric{micros(quantile(cvsRound.coLat, 0.5)), "us"}
	m["cvs.checkout_retries"] = metric{float64(cvsRound.retries), "count"}
	auditMetrics(m, auditRound)

	sp, err := stageProbes(cfg, cut, sz)
	if err != nil {
		return result{}, nil, err
	}
	for k, v := range sp.metrics {
		m[k] = v
	}
	if err := pointProbes(m, cfg, sp); err != nil {
		return result{}, nil, err
	}
	m["trace.stage_sum_frac"] = metric{stageSum(m, cfg.w, ref) / meanMicros(ref.lat), "frac"}

	return result{Attempted: ref.attempted + traced.attempted, Failed: ref.failed + traced.failed, Metrics: m}, problems, nil
}

func opsPerS(r roundResult) float64 { return float64(r.ops()) / r.wall.Seconds() }

func meanMicros(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return micros(sum) / float64(len(d))
}

// auditMetrics reads the epoch auditors' own counters once an
// epoch-mode round has sealed. queue_high_water is the exposure gauge:
// the most obligations ever waiting unverified. (Sampling submitted −
// audited while the round runs would race: Auditor.Stats reads the user
// state machine's chain counters unsynchronised and is documented as
// exact only on a quiesced auditor.)
func auditMetrics(m map[string]metric, r roundResult) {
	var highWater, maxBatch int
	var degraded, epochs, hits, misses uint64
	for _, s := range r.auditStats {
		if s.HighWater > highWater {
			highWater = s.HighWater
		}
		if s.MaxBatch > maxBatch {
			maxBatch = s.MaxBatch
		}
		if s.Epochs > epochs {
			epochs = s.Epochs
		}
		degraded += s.Degraded
		hits += s.ChainHits
		misses += s.ChainMisses
	}
	hitFrac := 0.0
	if hits+misses > 0 {
		hitFrac = float64(hits) / float64(hits+misses)
	}
	m["audit.queue_high_water"] = metric{float64(highWater), "count"}
	m["audit.max_batch"] = metric{float64(maxBatch), "count"}
	m["audit.degraded_submits"] = metric{float64(degraded), "count"}
	m["audit.epochs_closed"] = metric{float64(epochs), "count"}
	m["audit.chain_hit_frac"] = metric{hitFrac, "frac"}
	m["audit.drain_ms"] = metric{float64(r.drain) / float64(time.Millisecond), "ms"}
}

// stageSum adds up what the probes say one operation of w costs along
// its blocking path, in microseconds: forwarding for every call, the
// codec and server work of the operation itself, and then whatever the
// mode puts on the path — client verification plus the amortised sync
// rounds, or the journal append. The CVS workload adds the content
// store and content hashing of its commit and checkout shares.
func stageSum(m map[string]metric, w workload, ref roundResult) float64 {
	v := func(name string) float64 { return m[name].Value }
	sum := v("transport.calls_per_op")*v("transport.echo_rtt_us") +
		(v("proto2.server_handle_op_ns")+v("wire.encode_req_ns")+v("wire.decode_req_ns")+
			v("wire.encode_resp_ns")+v("wire.decode_resp_ns"))/1e3
	if w.epoch > 0 {
		sum += v("wal.append_sync_us")
	} else {
		// Each user opens a round every k of its own operations and
		// waits out every round its peers open.
		sum += v("proto2.user_handle_response_ns")/1e3 + users*v("driver.sync_round_us")/syncEvery
	}
	if w.kind == cvsMixed && len(ref.lat) > 0 {
		commits := float64(len(ref.commitLat)) / float64(len(ref.lat))
		hash := v("rcs.hash_content_ns_per_kb") * cvsFileKB / 1e3
		sum += commits*(v("cvs.store_push_us")+hash) + (1-commits)*(v("cvs.store_fetch_us")+hash)
	}
	return sum
}

// cvsFileKB is the nominal size of one CVS file of the workload.
const cvsFileKB = 5.0

// ---------------------------------------------------------------------
// Stage probes: replay the stream single-threaded through each layer
// ---------------------------------------------------------------------

// probeOps turns the first sz.probe timed operations of the stream,
// users interleaved, into database transactions.
func probeOps(w workload, st *stream, sz sizing) []vdb.Op {
	n := sz.probe
	var model *cvsModel
	if w.kind == cvsMixed {
		model = newCVSModel(st)
	}
	ops := make([]vdb.Op, 0, n)
	for i := sz.warm; len(ops) < n && i < sz.warm+sz.ops; i++ {
		for u := 0; u < users && len(ops) < n; u++ {
			o := st.users[u][i]
			switch o.kind {
			case opWrite:
				ops = append(ops, writeOp(o.idx, o.val))
			case opRead:
				ops = append(ops, readOp(o.idx))
			case opCommit:
				ops = append(ops, commitOp(o.idx, model.commit(o), u))
			case opCheckout:
				ops = append(ops, &cvs.CheckoutOp{Paths: []string{fileName(o.idx)}})
			}
		}
	}
	return ops
}

func commitOp(file int, content []byte, u int) vdb.Op {
	return &cvs.CommitOp{
		Author: fmt.Sprintf("user%d", u), Log: "edit",
		Files: []cvs.CommitFile{{Path: fileName(file), Hash: rcs.HashContent(content)}},
	}
}

// probeDB builds the workload's initial state directly in a database.
func probeDB(w workload, st *stream) (*vdb.DB, error) {
	db := vdb.New(0)
	if len(st.preload) > 0 {
		load := &vdb.WriteOp{Puts: make([]vdb.KV, len(st.preload))}
		for i, v := range st.preload {
			load.Puts[i] = vdb.KV{Key: keyName(i), Val: v}
		}
		if err := db.Preload(load); err != nil {
			return nil, err
		}
	}
	for i, lines := range st.files {
		if err := db.Preload(commitOp(i, joinLines(lines), i%users)); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// mallocs reads the process's allocation counter.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// stageResult carries what later probes reuse from the stage replay.
type stageResult struct {
	metrics  map[string]metric
	recBytes int           // mean request plus response bytes: one audit obligation
	sink     digest.Digest // keeps computed digests alive
}

type exchange struct {
	req  *core.OpRequest
	resp *core.OpResponseII
}

type proven struct {
	op  vdb.Op
	ans []byte
	vo  *merkle.VO
}

func stageProbes(cfg config, st *stream, sz sizing) (*stageResult, error) {
	ops := probeOps(cfg.w, st, sz)
	n := float64(len(ops))
	out := &stageResult{metrics: make(map[string]metric)}
	ns := func(name string, d time.Duration, count float64) {
		out.metrics[name] = metric{float64(d) / count, "ns"}
	}

	// proto2: the server and user state machines, no transport.
	db, err := probeDB(cfg.w, st)
	if err != nil {
		return nil, err
	}
	srv := proto2.NewServer(db)
	var machines [users]*proto2.User
	for u := range machines {
		machines[u] = proto2.NewUser(sig.UserID(u), db.Root(), 1<<62)
	}
	exchanges := make([]exchange, 0, len(ops))
	var tHandle, tVerify time.Duration
	m0 := mallocs()
	for i, op := range ops {
		usr := machines[i%users]
		req := usr.Request(op)
		t0 := time.Now()
		resp, err := srv.HandleOp(req)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("proto2 probe op %d: %w", i, err)
		}
		if _, err := usr.HandleResponse(op, resp); err != nil {
			return nil, fmt.Errorf("proto2 probe op %d: %w", i, err)
		}
		tVerify += time.Since(t1)
		tHandle += t1.Sub(t0)
		exchanges = append(exchanges, exchange{req, resp})
	}
	out.metrics["proto2.op_allocs"] = metric{float64(mallocs()-m0) / n, "count"}
	ns("proto2.server_handle_op_ns", tHandle, n)
	ns("proto2.user_handle_response_ns", tVerify, n)
	reports := make([]core.SyncReportII, users)
	for u := range machines {
		reports[u] = machines[u].SyncReport()
	}
	t0 := time.Now()
	for i := 0; i < len(ops); i++ {
		if err := machines[0].CompleteSync(reports); err != nil {
			return nil, fmt.Errorf("proto2 probe sync: %w", err)
		}
	}
	ns("proto2.complete_sync_ns", time.Since(t0), n)

	// vdb: ordered section, proof construction, client replay.
	if db, err = probeDB(cfg.w, st); err != nil {
		return nil, err
	}
	proofs := make([]proven, 0, len(ops))
	var tBegin, tFinish time.Duration
	digests := 0
	for i, op := range ops {
		t0 := time.Now()
		staged, err := db.Begin(op)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("vdb probe op %d: %w", i, err)
		}
		ans, vo, err := staged.Finish()
		tFinish += time.Since(t1)
		tBegin += t1.Sub(t0)
		if err != nil {
			return nil, fmt.Errorf("vdb probe op %d: %w", i, err)
		}
		digests += vo.Stats().PrunedDigests
		proofs = append(proofs, proven{op, ans, vo})
	}
	ns("vdb.begin_ns", tBegin, n)
	ns("vdb.finish_ns", tFinish, n)
	out.metrics["merkle.vo_digests"] = metric{float64(digests) / n, "count"}
	m0, t0 = mallocs(), time.Now()
	for i, p := range proofs {
		_, root, err := vdb.VerifyDerive(p.op, p.ans, p.vo)
		if err != nil {
			return nil, fmt.Errorf("vdb probe verify %d: %w", i, err)
		}
		out.sink = out.sink.Xor(root)
	}
	ns("vdb.verify_derive_ns", time.Since(t0), n)
	out.metrics["vdb.verify_derive_allocs"] = metric{float64(mallocs()-m0) / n, "count"}
	m0, t0 = mallocs(), time.Now()
	for i, p := range proofs {
		t, err := p.vo.Tree()
		if err != nil {
			return nil, fmt.Errorf("merkle probe replay %d: %w", i, err)
		}
		out.sink = out.sink.Xor(t.RootDigest())
	}
	ns("merkle.vo_replay_ns", time.Since(t0), n)
	out.metrics["merkle.vo_replay_allocs"] = metric{float64(mallocs()-m0) / n, "count"}

	// vdb trusted path, then the bare tree underneath it.
	if db, err = probeDB(cfg.w, st); err != nil {
		return nil, err
	}
	tree, err := merkle.Restore(db.Snapshot().Tree)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i, op := range ops {
		if _, err := db.ApplyPlain(op); err != nil {
			return nil, fmt.Errorf("vdb probe plain %d: %w", i, err)
		}
	}
	ns("vdb.apply_plain_ns", time.Since(t0), n)
	merkleProbes(out, ns, tree, cfg, st, sz)

	// digest: the tagged state hash every verified transition computes twice.
	t0 = time.Now()
	for i := 0; i < len(ops); i++ {
		out.sink = core.TaggedStateHash(out.sink, uint64(i), sig.UserID(i%users))
	}
	ns("digest.state_hash_ns", time.Since(t0), n)

	if err := wireProbes(out, ns, exchanges); err != nil {
		return nil, err
	}
	return out, nil
}

// merkleProbes times single-key tree operations on the workload's own
// tree. Key-value workloads use the keys of their stream; the CVS
// workload, whose transactions touch several records each, samples the
// tree's records instead.
func merkleProbes(out *stageResult, ns func(string, time.Duration, float64), tree *merkle.Tree, cfg config, st *stream, sz sizing) {
	type put struct {
		key string
		val []byte
	}
	puts := make([]put, 0, sz.probe)
	if cfg.w.kind == cvsMixed {
		keys := tree.Keys()
		r := rand.New(rand.NewSource(cfg.seed))
		for len(puts) < sz.probe {
			k := keys[r.Intn(len(keys))]
			old, _ := tree.Get(k)
			val := append([]byte(nil), old...)
			val[0] ^= 1
			puts = append(puts, put{k, val})
		}
	} else {
		for i := sz.warm; len(puts) < sz.probe && i < sz.warm+sz.ops; i++ {
			for u := 0; u < users && len(puts) < sz.probe; u++ {
				o := st.users[u][i]
				val := o.val
				if val == nil {
					val = st.preload[o.idx]
				}
				puts = append(puts, put{keyName(o.idx), val})
			}
		}
	}
	n := float64(len(puts))
	t0 := time.Now()
	for _, p := range puts {
		tree.Get(p.key)
	}
	ns("merkle.get_ns", time.Since(t0), n)
	var tBuild time.Duration
	for _, p := range puts {
		rec := tree.Record()
		if err := rec.Put(p.key, p.val); err != nil {
			continue
		}
		t0 := time.Now()
		_ = rec.VO()
		tBuild += time.Since(t0)
	}
	ns("merkle.vo_build_ns", tBuild, n)
	t0 = time.Now()
	for _, p := range puts {
		tree = tree.Put(p.key, p.val)
		out.sink = out.sink.Xor(tree.RootDigest())
	}
	ns("merkle.put_root_ns", time.Since(t0), n)
}

// wireProbes measures the codec on the real messages of the replay:
// exact self-contained sizes, and encode/decode through persistent
// streams as a connection uses them, one per direction.
func wireProbes(out *stageResult, ns func(string, time.Duration, float64), ex []exchange) error {
	n := float64(len(ex))
	reqBytes, respBytes := 0, 0
	for _, e := range ex {
		a, err := wire.Size(e.req)
		if err != nil {
			return err
		}
		b, err := wire.Size(e.resp)
		if err != nil {
			return err
		}
		reqBytes += a
		respBytes += b
	}
	out.metrics["wire.req_bytes"] = metric{float64(reqBytes) / n, "B"}
	out.metrics["wire.resp_bytes"] = metric{float64(respBytes) / n, "B"}
	out.recBytes = (reqBytes + respBytes) / len(ex)

	var up, down bytes.Buffer
	upEnc, upDec := wire.NewEncoder(&up), wire.NewDecoder(&up)
	downEnc, downDec := wire.NewEncoder(&down), wire.NewDecoder(&down)
	var encReq, decReq, encResp, decResp time.Duration
	m0 := mallocs()
	for i, e := range ex {
		t0 := time.Now()
		err := upEnc.Encode(e.req)
		t1 := time.Now()
		if err == nil {
			_, err = upDec.Decode()
		}
		t2 := time.Now()
		if err == nil {
			err = downEnc.Encode(e.resp)
		}
		t3 := time.Now()
		if err == nil {
			_, err = downDec.Decode()
		}
		t4 := time.Now()
		if err != nil {
			return fmt.Errorf("wire probe message %d: %w", i, err)
		}
		encReq += t1.Sub(t0)
		decReq += t2.Sub(t1)
		encResp += t3.Sub(t2)
		decResp += t4.Sub(t3)
	}
	out.metrics["wire.roundtrip_allocs"] = metric{float64(mallocs()-m0) / n, "count"}
	ns("wire.encode_req_ns", encReq, n)
	ns("wire.decode_req_ns", decReq, n)
	ns("wire.encode_resp_ns", encResp, n)
	ns("wire.decode_resp_ns", decResp, n)
	return nil
}

// ---------------------------------------------------------------------
// Point probes: layers that do not depend on the operation stream
// ---------------------------------------------------------------------

// Sample counts of the point probes at full scale; syncs are the
// slowest (a disk flush each), so there are fewest of them.
const (
	echoCalls    = 3000
	hubMessages  = 2000
	roundOps     = 400
	walSyncs     = 200
	walAppends   = 4000
	storeFiles   = 40
	storeRevs    = 40
	pointWarmups = 100
)

// samples scales a point probe's sample count with the run.
func (c config) samples(full int) int {
	if n := full / c.div; n > 20 {
		return n
	}
	return 20
}

func p50(d []time.Duration) float64 {
	sortDurations(d)
	return micros(quantile(d, 0.5))
}

func pointProbes(m map[string]metric, cfg config, sp *stageResult) error {
	probes := []func(map[string]metric, config, *stageResult) error{
		echoProbe, hubProbe, syncRoundProbe, walProbe, storeProbe,
	}
	for _, p := range probes {
		if err := p(m, cfg, sp); err != nil {
			return err
		}
	}
	return nil
}

// echoProbe measures bare forwarding: the smallest request against a
// handler that does nothing.
func echoProbe(m map[string]metric, cfg config, _ *stageResult) error {
	ts, err := transport.Listen("127.0.0.1:0", func(req any) (any, error) { return req, nil })
	if err != nil {
		return err
	}
	defer ts.Close()
	conn, err := transport.Dial(ts.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	req := &core.OpRequest{Op: &vdb.NopOp{}}
	calls := cfg.samples(echoCalls)
	lat := make([]time.Duration, 0, calls)
	var m0 uint64
	for i := -pointWarmups; i < calls; i++ {
		if i == 0 {
			m0 = mallocs()
		}
		t0 := time.Now()
		if _, err := conn.Call(req); err != nil {
			return fmt.Errorf("echo probe: %w", err)
		}
		if i >= 0 {
			lat = append(lat, time.Since(t0))
		}
	}
	m["transport.echo_allocs"] = metric{float64(mallocs()-m0) / float64(calls), "count"}
	m["transport.echo_rtt_us"] = metric{p50(lat), "us"}
	return nil
}

// hubProbe measures one hop through the TCP broadcast hub: publish on
// one member, receive on the other.
func hubProbe(m map[string]metric, cfg config, _ *stageResult) error {
	hs, err := broadcast.ListenHub("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hs.Close()
	a, err := broadcast.DialHub(hs.Addr())
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := broadcast.DialHub(hs.Addr())
	if err != nil {
		return err
	}
	defer b.Close()
	time.Sleep(50 * time.Millisecond) // as cluster.go: let the hub register both
	messages := cfg.samples(hubMessages)
	lat := make([]time.Duration, 0, messages)
	for i := -pointWarmups; i < messages; i++ {
		t0 := time.Now()
		if err := a.Publish(broadcast.Message{From: 0, Payload: &core.SyncRequest{From: 0, Round: uint64(i + pointWarmups)}}); err != nil {
			return fmt.Errorf("hub probe: %w", err)
		}
		if _, ok := <-b.Recv(); !ok {
			return fmt.Errorf("hub probe: peer channel closed")
		}
		d := time.Since(t0)
		// A member hears its own publications too; drain them so the
		// publisher's buffer never fills.
		if _, ok := <-a.Recv(); !ok {
			return fmt.Errorf("hub probe: own channel closed")
		}
		if i >= 0 {
			lat = append(lat, d)
		}
	}
	m["broadcast.publish_deliver_us"] = metric{p50(lat), "us"}
	return nil
}

// syncRoundProbe prices one synchronization round: with k = 1 every
// operation opens a round and the next operation waits on the driver's
// condition variable until all reports are in, so back-to-back
// operations cost an operation plus a round. (WaitIdle would do, but it
// polls at 5 ms.) The same loop at an unreachable k gives the operation
// alone.
func syncRoundProbe(m map[string]metric, cfg config, _ *stageResult) error {
	loop := func(k uint64) (float64, error) {
		s, err := newStack(stackOpts{syncEvery: k})
		if err != nil {
			return 0, err
		}
		defer s.Close()
		ops := cfg.samples(roundOps)
		lat := make([]time.Duration, 0, ops)
		for i := -pointWarmups; i < ops; i++ {
			t0 := time.Now()
			if _, err := s.Do(0, &vdb.NopOp{}); err != nil {
				return 0, fmt.Errorf("sync round probe: %w", err)
			}
			if i >= 0 {
				lat = append(lat, time.Since(t0))
			}
		}
		return p50(lat), s.WaitIdle(0, waitTimeout)
	}
	withRound, err := loop(1)
	if err != nil {
		return err
	}
	alone, err := loop(1 << 62)
	if err != nil {
		return err
	}
	m["driver.sync_round_us"] = metric{withRound - alone, "us"}
	return nil
}

// walProbe appends records the size of one audit obligation under both
// sync policies.
func walProbe(m map[string]metric, cfg config, sp *stageResult) error {
	payload := make([]byte, sp.recBytes)
	appendAll := func(policy wal.SyncPolicy, n int) (float64, float64, error) {
		dir, err := tempDir(cfg.out)
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		w, err := wal.Open(wal.Options{Dir: dir, Sync: policy})
		if err != nil {
			return 0, 0, err
		}
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := w.Append(1, payload); err != nil {
				w.Close()
				return 0, 0, err
			}
			lat = append(lat, time.Since(t0))
		}
		if err := w.Close(); err != nil {
			return 0, 0, err
		}
		var size int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			return 0, 0, err
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				size += info.Size()
			}
		}
		return p50(lat), float64(size) / float64(n), nil
	}
	synced, _, err := appendAll(wal.SyncEachAppend, cfg.samples(walSyncs))
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	unsynced, perRecord, err := appendAll(wal.SyncOnRotate, cfg.samples(walAppends))
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	m["wal.append_sync_us"] = metric{synced, "us"}
	m["wal.append_nosync_us"] = metric{unsynced, "us"}
	m["wal.bytes_per_record"] = metric{perRecord, "B"}
	return nil
}

// storeProbe drives the content path alone: revision chains of
// workload-sized files pushed into and fetched from the content store,
// the content hash, and the line diff behind each reverse delta.
func storeProbe(m map[string]metric, cfg config, _ *stageResult) error {
	r := rand.New(rand.NewSource(cfg.seed))
	type rev struct {
		path    string
		n       uint64
		content []byte
		hash    digest.Digest
	}
	files := storeFiles / cfg.div
	if files < 1 {
		files = 1
	}
	revs := make([]rev, 0, files*storeRevs)
	userBytes := 0
	for f := 0; f < files; f++ {
		lines := make([]string, 100)
		for i := range lines {
			lines[i] = randLine(r)
		}
		for n := 1; n <= storeRevs; n++ {
			for e := 0; e < 5; e++ {
				lines[r.Intn(len(lines))] = randLine(r)
			}
			c := joinLines(lines)
			revs = append(revs, rev{path: fileName(f), n: uint64(n), content: c, hash: rcs.HashContent(c)})
			userBytes += len(c)
		}
	}

	t0 := time.Now()
	for _, v := range revs {
		_ = rcs.HashContent(v.content)
	}
	m["rcs.hash_content_ns_per_kb"] = metric{float64(time.Since(t0)) / (float64(userBytes) / 1024), "ns/KB"}

	diffs := make([]time.Duration, 0, len(revs))
	for i := 1; i < len(revs); i++ {
		if revs[i].path != revs[i-1].path {
			continue
		}
		t0 := time.Now()
		_ = diff.Strings(string(revs[i].content), string(revs[i-1].content))
		diffs = append(diffs, time.Since(t0))
	}
	m["diff.strings_us"] = metric{p50(diffs), "us"}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	store := cvs.NewStore()
	before := heap()
	pushes := make([]time.Duration, 0, len(revs))
	for _, v := range revs {
		t0 := time.Now()
		if err := store.Push(v.path, v.n, v.content); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		pushes = append(pushes, time.Since(t0))
	}
	grown := float64(heap()) - float64(before)
	fetches := make([]time.Duration, 0, len(revs))
	for _, v := range revs {
		t0 := time.Now()
		if _, err := store.Fetch(v.path, v.n, v.hash); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		fetches = append(fetches, time.Since(t0))
	}
	m["cvs.store_push_us"] = metric{p50(pushes), "us"}
	m["cvs.store_fetch_us"] = metric{p50(fetches), "us"}
	m["cvs.store_amplification"] = metric{grown / float64(userBytes), "x"}
	return nil
}
