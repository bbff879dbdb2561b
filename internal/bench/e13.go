package bench

import (
	"fmt"
	"strings"
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
	Scheme  string `json:"scheme"`
	Clients int    `json:"clients"`
	loadPoint
}

// E13Data is the full experiment result, serialized to BENCH_E13.json
// by cmd/tcvs-bench.
type E13Data struct {
	DBSize      int        `json:"db_size"`
	OpsPerPoint int        `json:"ops_per_point"`
	Points      []E13Point `json:"points"`
}

// e13Client performs one verified operation over a connection and
// reports the operation counter the server presented.
type e13Client func(c transport.Caller, op vdb.Op) (ctr uint64, err error)

// e13Scheme wires up one measured configuration: a fresh preloaded
// database, the server handler over it and a per-client user factory.
type e13Scheme struct {
	name  string
	setup func(size, nClients int) (*vdb.DB, transport.Handler, func(id int) e13Client)
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

// callII is the two-message exchange of every scheme but Protocol I:
// one request, one OpResponseII, checked by verify.
func callII(c transport.Caller, req *core.OpRequest, verify func(*core.OpResponseII) error) (uint64, error) {
	resp, err := c.Call(req)
	if err != nil {
		return 0, err
	}
	r, ok := resp.(*core.OpResponseII)
	if !ok {
		return 0, fmt.Errorf("bench: unexpected response %T", resp)
	}
	return r.Ctr, verify(r)
}

// --- trusted floor: plain apply, no proofs, no verification ---

func trustedSetup(size, _ int) (*vdb.DB, transport.Handler, func(int) e13Client) {
	db := seedDB(size)
	handler := opHandler(func(r *core.OpRequest) (*core.OpResponseII, error) {
		ans, err := db.ApplyPlain(r.Op)
		if err != nil {
			return nil, err
		}
		return &core.OpResponseII{Answer: ans}, nil
	})
	return db, handler, func(int) e13Client {
		return func(c transport.Caller, op vdb.Op) (uint64, error) {
			return callII(c, &core.OpRequest{Op: op}, func(*core.OpResponseII) error { return nil })
		}
	}
}

// --- Protocol I ---

func p1Do(u *proto1.User, c transport.Caller, op vdb.Op) (uint64, error) {
	req := u.Request(op)
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
	ack, _, err := u.HandleResponse(op, r)
	if err != nil {
		return 0, err
	}
	if _, err := c.Call(ack); err != nil {
		return 0, err
	}
	return r.Ctr, nil
}

func p1Setup(size, nClients int) (*vdb.DB, transport.Handler, func(int) e13Client) {
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
	return db, handler, func(id int) e13Client {
		u := proto1.NewUser(signers[id], ring, 1<<62)
		return func(c transport.Caller, op vdb.Op) (uint64, error) { return p1Do(u, c, op) }
	}
}

// --- Protocol II ---

func p2Setup(size, _ int) (*vdb.DB, transport.Handler, func(int) e13Client) {
	db := seedDB(size)
	srv := proto2.NewServer(db)
	root := db.Root()
	return db, opHandler(srv.HandleOp), func(id int) e13Client {
		u := proto2.NewUser(sig.UserID(id), root, 1<<62)
		return func(c transport.Caller, op vdb.Op) (uint64, error) {
			return callII(c, u.Request(op), func(r *core.OpResponseII) error {
				_, err := u.HandleResponse(op, r)
				return err
			})
		}
	}
}

// --- Protocol III ---

func p3Setup(size, nClients int) (*vdb.DB, transport.Handler, func(int) e13Client) {
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
	return db, handler, func(id int) e13Client {
		u := proto3.NewUser(signers[id], ring, root)
		return func(c transport.Caller, op vdb.Op) (uint64, error) {
			return callII(c, u.Request(op), func(r *core.OpResponseII) error {
				// No epochs advance during the measurement, so the
				// outcome never carries checker duty.
				_, err := u.HandleResponse(op, r)
				return err
			})
		}
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

// e13Warmup is the number of untimed warm-up ops each client runs
// before its measured window.
const e13Warmup = 8

// e13Fleet is one measured configuration live: the scheme's handler
// behind TCP and n connected protocol clients.
type e13Fleet struct {
	db      *vdb.DB
	srv     *transport.Server
	callers []transport.Caller
	clients []e13Client
}

func newE13Fleet(s e13Scheme, size, n int) (*e13Fleet, error) {
	db, handler, newClient := s.setup(size, n)
	srv, err := transport.Listen("127.0.0.1:0", handler)
	if err != nil {
		return nil, err
	}
	f := &e13Fleet{db: db, srv: srv}
	for i := 0; i < n; i++ {
		c, err := transport.Dial(srv.Addr())
		if err != nil {
			f.close()
			return nil, err
		}
		f.callers = append(f.callers, c)
		f.clients = append(f.clients, newClient(i))
	}
	return f, nil
}

func (f *e13Fleet) close() {
	for _, c := range f.callers {
		c.Close()
	}
	f.srv.Close()
}

// do performs arrival a as its worker's client. Writes are spread so
// clients touch distinct keys most of the time, like independent CVS
// users would.
func (f *e13Fleet) do(a arrival, size int) (ctr uint64, err error) {
	return f.clients[a.worker](f.callers[a.worker], benchOp(a.worker*100003+a.seq, size))
}

// e13Run measures one (scheme, clients) point, closed loop, and returns
// the run plus, per client, every operation counter the server
// presented. The counters cover the warm-up too: the stress test checks
// the gap-free permutation over every op the server admitted.
func e13Run(s e13Scheme, size, nClients, totalOps int) (*loadResult, [][]uint64, error) {
	f, err := newE13Fleet(s, size, nClients)
	if err != nil {
		return nil, nil, err
	}
	defer f.close()
	ctrs := make([][]uint64, nClients)
	res := load{
		workers: nClients, warmup: e13Warmup, ops: totalOps / nClients,
		op: func(a arrival) (bool, error) {
			ctr, err := f.do(a, size)
			if err != nil {
				return false, err
			}
			ctrs[a.worker] = append(ctrs[a.worker], ctr)
			return true, nil
		},
	}.run()
	return res, ctrs, res.err()
}

func e13Point(s e13Scheme, cfg E13Config, nClients int) (E13Point, error) {
	res, _, err := e13Run(s, cfg.DBSize, nClients, cfg.OpsPerPoint)
	if err != nil {
		return E13Point{}, err
	}
	return E13Point{Scheme: s.name, Clients: nClients, loadPoint: newLoadPoint(res.pooled(), res.elapsed)}, nil
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
