package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

// E13 measures the serial-section work of the pipelined server hot
// path: real TCP clients (each a full protocol user state machine that
// verifies every response) hammer one server concurrently, and we
// report throughput and latency percentiles per client count.
//
// The checked-in BENCH_E13.json also holds P2-seed rows this code
// cannot produce: the frozen control run of the deleted seed transport
// (see EXPERIMENTS.md).

// E13Config parameterizes RunE13.
type E13Config struct {
	// DBSize is the number of preloaded keys.
	DBSize int
	// OpsPerPoint is the total operation count per (scheme, clients)
	// measurement, split evenly across the clients.
	OpsPerPoint int
	// ClientCounts are the concurrency levels to measure.
	ClientCounts []int
}

// DefaultE13Config is what E13() and cmd/tcvs-bench run.
func DefaultE13Config() E13Config {
	return E13Config{DBSize: 1000, OpsPerPoint: 1920, ClientCounts: []int{1, 4, 16, 64}}
}

// E13Point is one measured (scheme, client count) cell.
type E13Point struct {
	Scheme    string  `json:"scheme"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

// E13Data is the full experiment result, serialized to BENCH_E13.json
// by cmd/tcvs-bench.
type E13Data struct {
	DBSize      int        `json:"db_size"`
	OpsPerPoint int        `json:"ops_per_point"`
	Points      []E13Point `json:"points"`
}

// WriteJSON writes the result in the checked-in BENCH_E13.json format.
func (d *E13Data) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// e13Client performs one verified operation over a connection and
// reports the operation counter the server presented.
type e13Client interface {
	do(c transport.Caller, op vdb.Op) (ctr uint64, err error)
}

// e13Scheme wires up one measured configuration: a fresh server
// handler and a per-client user factory.
type e13Scheme struct {
	name  string
	setup func(size, nClients int) (transport.Handler, func(id int) e13Client)
}

func opHandler[R any](handleOp func(*core.OpRequest) (R, error)) transport.Handler {
	return func(req any) (any, error) {
		r, ok := req.(*core.OpRequest)
		if !ok {
			return nil, fmt.Errorf("bench: unexpected request %T", req)
		}
		return handleOp(r)
	}
}

// --- trusted floor: plain apply, no proofs, no verification ---

type trustedClient struct{}

func (trustedClient) do(c transport.Caller, op vdb.Op) (uint64, error) {
	resp, err := c.Call(&core.OpRequest{Op: op})
	if err != nil {
		return 0, err
	}
	r, ok := resp.(*core.OpResponseII)
	if !ok {
		return 0, fmt.Errorf("bench: unexpected response %T", resp)
	}
	return r.Ctr, nil
}

func trustedSetup(size, _ int) (transport.Handler, func(int) e13Client) {
	db := seedDB(size)
	handler := func(req any) (any, error) {
		r, ok := req.(*core.OpRequest)
		if !ok {
			return nil, fmt.Errorf("bench: unexpected request %T", req)
		}
		ans, err := db.ApplyPlain(r.Op)
		if err != nil {
			return nil, err
		}
		return &core.OpResponseII{Answer: ans}, nil
	}
	return handler, func(int) e13Client { return trustedClient{} }
}

// --- Protocol I ---

type p1Client struct{ u *proto1.User }

func (cl *p1Client) do(c transport.Caller, op vdb.Op) (uint64, error) {
	req := cl.u.Request(op)
	// Protocol I admits one operation globally between acks; competing
	// clients see ErrAckPending (as a wire error string) and retry
	// with a small backoff. This contention is the protocol's blocking
	// third message showing up in the numbers, not a harness artifact.
	bo := backoff.New(backoff.Policy{Min: 50 * time.Microsecond, Max: time.Millisecond, Jitter: -1}, nil)
	var resp any
	var err error
	for {
		resp, err = c.Call(req)
		if err == nil {
			break
		}
		if strings.Contains(err.Error(), "ack is still pending") {
			bo.Sleep()
			continue
		}
		return 0, err
	}
	r, ok := resp.(*core.OpResponseI)
	if !ok {
		return 0, fmt.Errorf("bench: unexpected response %T", resp)
	}
	ack, _, err := cl.u.HandleResponse(op, r)
	if err != nil {
		return 0, err
	}
	if _, err := c.Call(ack); err != nil {
		return 0, err
	}
	return r.Ctr, nil
}

func p1Setup(size, nClients int) (transport.Handler, func(int) e13Client) {
	db := seedDB(size)
	signers, ring, err := sig.DeterministicSigners(nClients, 13)
	if err != nil {
		panic(err)
	}
	srv := proto1.NewServer(db, proto1.Initialize(signers[0], db.Root()))
	handler := func(req any) (any, error) {
		switch r := req.(type) {
		case *core.OpRequest:
			return srv.HandleOp(r)
		case *core.AckRequest:
			if err := srv.HandleAck(r); err != nil {
				return nil, err
			}
			return &core.OKResponse{}, nil
		}
		return nil, fmt.Errorf("bench: unexpected request %T", req)
	}
	return handler, func(id int) e13Client {
		return &p1Client{u: proto1.NewUser(signers[id], ring, 1<<62)}
	}
}

// --- Protocol II (pipelined and seed-baseline variants) ---

type p2Client struct{ u *proto2.User }

func (cl *p2Client) do(c transport.Caller, op vdb.Op) (uint64, error) {
	resp, err := c.Call(cl.u.Request(op))
	if err != nil {
		return 0, err
	}
	r, ok := resp.(*core.OpResponseII)
	if !ok {
		return 0, fmt.Errorf("bench: unexpected response %T", resp)
	}
	if _, err := cl.u.HandleResponse(op, r); err != nil {
		return 0, err
	}
	return r.Ctr, nil
}

func p2Setup(size, _ int) (transport.Handler, func(int) e13Client) {
	db := seedDB(size)
	srv := proto2.NewServer(db)
	root := db.Root()
	return opHandler(srv.HandleOp), func(id int) e13Client {
		return &p2Client{u: proto2.NewUser(sig.UserID(id), root, 1<<62)}
	}
}

// --- Protocol III ---

type p3Client struct{ u *proto3.User }

func (cl *p3Client) do(c transport.Caller, op vdb.Op) (uint64, error) {
	resp, err := c.Call(cl.u.Request(op))
	if err != nil {
		return 0, err
	}
	r, ok := resp.(*core.OpResponseII)
	if !ok {
		return 0, fmt.Errorf("bench: unexpected response %T", resp)
	}
	// No epochs advance during the measurement, so the outcome never
	// carries checker duty.
	if _, err := cl.u.HandleResponse(op, r); err != nil {
		return 0, err
	}
	return r.Ctr, nil
}

func p3Setup(size, nClients int) (transport.Handler, func(int) e13Client) {
	db := seedDB(size)
	signers, ring, err := sig.DeterministicSigners(nClients, 17)
	if err != nil {
		panic(err)
	}
	srv := proto3.NewServer(db)
	root := db.Root()
	handler := func(req any) (any, error) {
		switch r := req.(type) {
		case *core.OpRequest:
			return srv.HandleOp(r)
		case *core.GetBackupsRequest:
			return srv.HandleGetBackups(r), nil
		}
		return nil, fmt.Errorf("bench: unexpected request %T", req)
	}
	return handler, func(id int) e13Client {
		return &p3Client{u: proto3.NewUser(signers[id], ring, root)}
	}
}

func e13Schemes() []e13Scheme {
	return []e13Scheme{
		{name: "trusted", setup: trustedSetup},
		{name: "P1", setup: p1Setup},
		{name: "P2", setup: p2Setup},
		{name: "P3", setup: p3Setup},
	}
}

// e13ClientResult is one client goroutine's record of a measurement.
type e13ClientResult struct {
	lats []time.Duration
	ctrs []uint64
	err  error
}

// e13Run measures one (scheme, clients) point and returns the per-op
// latencies plus every operation counter the server presented (the
// stress test asserts these form a gap-free permutation).
func e13Run(s e13Scheme, size, nClients, totalOps int) ([]e13ClientResult, time.Duration, error) {
	handler, newClient := s.setup(size, nClients)
	srv, err := transport.Listen("127.0.0.1:0", handler)
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()

	perClient := totalOps / nClients
	results := make([]e13ClientResult, nClients)
	callers := make([]transport.Caller, nClients)
	clients := make([]e13Client, nClients)
	for i := 0; i < nClients; i++ {
		c, err := transport.Dial(srv.Addr())
		if err != nil {
			return nil, 0, err
		}
		defer c.Close()
		callers[i] = c
		clients[i] = newClient(i)
	}

	runOps := func(from, to int, timed bool) error {
		var wg sync.WaitGroup
		for i := 0; i < nClients; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				res := &results[id]
				for j := from; j < to; j++ {
					// Spread writes so clients touch distinct keys most
					// of the time, like independent CVS users would.
					op := benchOp(id*100003+j, size)
					t0 := time.Now()
					ctr, err := clients[id].do(callers[id], op)
					if err != nil {
						res.err = fmt.Errorf("client %d op %d: %w", id, j, err)
						return
					}
					if timed {
						res.lats = append(res.lats, time.Since(t0))
					}
					res.ctrs = append(res.ctrs, ctr)
				}
			}(i)
		}
		wg.Wait()
		for i := range results {
			if results[i].err != nil {
				return results[i].err
			}
		}
		return nil
	}

	for i := range results {
		results[i].lats = make([]time.Duration, 0, perClient)
		results[i].ctrs = make([]uint64, 0, perClient+e13Warmup)
	}
	// Warm-up: a few untimed ops per client bring every connection to
	// steady state (TCP, gob engines, buffer pools) so the timed window
	// measures operation throughput rather than connection setup. The
	// counters are still recorded: the stress test checks the gap-free
	// permutation over every op the server admitted, warm-up included.
	if err := runOps(0, e13Warmup, false); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := runOps(e13Warmup, e13Warmup+perClient, true); err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	return results, elapsed, nil
}

// e13Warmup is the number of untimed warm-up ops each client runs
// before its measured window.
const e13Warmup = 8

func e13Point(s e13Scheme, cfg E13Config, nClients int) (E13Point, error) {
	results, elapsed, err := e13Run(s, cfg.DBSize, nClients, cfg.OpsPerPoint)
	if err != nil {
		return E13Point{}, err
	}
	var lats []time.Duration
	for _, r := range results {
		lats = append(lats, r.lats...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx].Nanoseconds()) / 1e3
	}
	ops := len(lats)
	return E13Point{
		Scheme:    s.name,
		Clients:   nClients,
		Ops:       ops,
		OpsPerSec: float64(ops) / elapsed.Seconds(),
		P50Micros: pct(0.50),
		P99Micros: pct(0.99),
	}, nil
}

// RunE13 runs the full experiment.
func RunE13(cfg E13Config) (*E13Data, error) {
	d := &E13Data{DBSize: cfg.DBSize, OpsPerPoint: cfg.OpsPerPoint}
	for _, s := range e13Schemes() {
		for _, n := range cfg.ClientCounts {
			p, err := e13Point(s, cfg, n)
			if err != nil {
				return nil, fmt.Errorf("E13 %s/%d: %w", s.name, n, err)
			}
			d.Points = append(d.Points, p)
		}
	}
	return d, nil
}

// E13 runs the experiment with the default configuration and renders
// it as a table.
func E13() *Table {
	d, err := RunE13(DefaultE13Config())
	if err != nil {
		panic(err)
	}
	return d.Table()
}

// Table renders the data as the E13 exhibit.
func (d *E13Data) Table() *Table {
	t := &Table{
		ID:       "E13",
		Title:    "Concurrency: TCP throughput and latency vs client count",
		PaperRef: "Desideratum 3 (workload preservation) under concurrent clients; DESIGN.md \"Concurrency model\"",
		Columns:  []string{"scheme", "clients", "ops/s", "p50-us", "p99-us"},
	}
	for _, p := range d.Points {
		t.AddRow(p.Scheme, p.Clients, int(p.OpsPerSec), fmt.Sprintf("%.0f", p.P50Micros), fmt.Sprintf("%.0f", p.P99Micros))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("db %d keys, %d ops/point", d.DBSize, d.OpsPerPoint),
		"Protocol I's admission gate (one un-acked op globally) caps its concurrency benefit — the blocking third message the paper removes in Protocol II")
	return t
}
