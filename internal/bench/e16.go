package bench

import (
	"fmt"
	"time"

	"trustedcvs/internal/vdb"
)

// E16 measures the Merkle forest (sharded authenticated DB with a
// signed root-of-roots): verified Protocol II throughput as the client
// population grows, single tree vs forest.
//
// The sweep is open loop: every client offers a fixed rate of verified
// operations (a CVS user commits at a human pace; it does not hammer
// the server in a closed loop), so the offered load — and, while the
// server keeps up, the delivered verified throughput — rises linearly
// with the client count. What the exhibit is really after is the cost
// of keeping up: the single tree funnels every operation through one
// global ordered section, so its lock sees every arrival and its
// queueing shows up as contention and tail latency; the forest narrows
// the ordered section to one shard, so clients hashing to different
// shards never contend. The per-shard counters (vdb.Stats deltas over
// the timed window) recorded with each point are the direct evidence.
//
// Latency is measured from each operation's *scheduled* issue time,
// not its actual send time, so queueing delay behind a convoyed lock
// or a slow server is charged to the scheme rather than silently
// omitted (the coordinated-omission trap).

// E16Config parameterizes RunE16.
type E16Config struct {
	// DBSize is the number of preloaded keys.
	DBSize int
	// PerClientRate is each client's offered load in ops/s.
	PerClientRate float64
	// OpsPerClient is how many paced ops each client performs in the
	// timed window (so a point lasts OpsPerClient/PerClientRate
	// seconds, independent of the client count).
	OpsPerClient int
	// Shards is the forest scheme's shard count.
	Shards int
	// ClientCounts are the population sizes to measure.
	ClientCounts []int
}

// DefaultE16Config is what E16() and cmd/tcvs-bench run.
func DefaultE16Config() E16Config {
	return E16Config{
		DBSize:        1000,
		PerClientRate: 12,
		OpsPerClient:  40,
		Shards:        16,
		ClientCounts:  []int{4, 16, 64, 256},
	}
}

// E16ShardStat is one shard's serial-section accounting over one
// point's timed window (deltas, not cumulative).
type E16ShardStat struct {
	Shard     int     `json:"shard"`
	Ops       uint64  `json:"ops"`
	Contended uint64  `json:"contended"`
	WaitMs    float64 `json:"wait_ms"`
	HeldMs    float64 `json:"held_ms"`
}

// E16Point is one measured (scheme, client count) cell.
type E16Point struct {
	Scheme  string  `json:"scheme"`
	Clients int     `json:"clients"`
	Shards  int     `json:"shards"`
	Offered float64 `json:"offered_ops_per_sec"`
	loadPoint
	// ContendedFrac is the fraction of ordered-section entries that
	// found the shard lock held; LockWaitMs is the total time spent
	// waiting for it. BusiestShardOcc is the busiest shard lock's
	// occupancy — its held time over the window's wall time — which is
	// the quantity that caps throughput: a section occupying o of the
	// wall at load L saturates at L/o. All are deltas over the timed
	// window.
	ContendedFrac   float64        `json:"contended_frac"`
	LockWaitMs      float64        `json:"lock_wait_ms"`
	BusiestShardOcc float64        `json:"busiest_shard_occupancy"`
	ShardStats      []E16ShardStat `json:"shard_stats,omitempty"`
}

// E16Data is the full experiment result, serialized to BENCH_E16.json
// by cmd/tcvs-bench.
type E16Data struct {
	DBSize        int        `json:"db_size"`
	PerClientRate float64    `json:"per_client_rate_ops_per_sec"`
	OpsPerClient  int        `json:"ops_per_client"`
	Shards        int        `json:"shards"`
	Points        []E16Point `json:"points"`
	// ForestRise64Over16 is forest verified throughput at 64 clients
	// over 16 clients — the PR's acceptance number (> 1: verified
	// throughput rises with client count).
	ForestRise64Over16 float64 `json:"forest_rise_64_over_16"`
	// ForestSpeedupAt64 is forest over single-tree verified throughput
	// at 64 clients (≥ ~1: the forest keeps up wherever the single
	// tree does).
	ForestSpeedupAt64 float64 `json:"forest_speedup_vs_single_tree_at_64"`
	// Ordered-section occupancy at the largest population, same
	// offered load: the single tree's one global section vs the
	// forest's busiest shard. Occupancy is what caps throughput — a
	// section at occupancy o saturates at (delivered/o) ops/s — so the
	// ratio is the headroom the forest buys.
	SingleTreeOccAtMax float64 `json:"single_tree_busiest_occupancy_at_max"`
	ForestOccAtMax     float64 `json:"forest_busiest_occupancy_at_max"`
}

// e16Point runs one open-loop point: nClients paced clients against a
// fresh server over real TCP, shard stats snapshotted around the timed
// window.
func e16Point(s e13Scheme, cfg E16Config, nClients int) (E16Point, error) {
	f, err := newE13Fleet(s, cfg.DBSize, nClients)
	if err != nil {
		return E16Point{}, err
	}
	defer f.close()
	var before []vdb.ShardStats
	res := load{
		workers: nClients, warmup: e13Warmup, ops: cfg.OpsPerClient,
		interval: time.Duration(float64(time.Second) / cfg.PerClientRate),
		begin:    func() { before = f.db.Stats() },
		op: func(a arrival) (bool, error) {
			_, err := f.do(a, cfg.DBSize)
			return true, err
		},
	}.run()
	if err := res.err(); err != nil {
		return E16Point{}, err
	}
	pt := E16Point{
		Scheme: s.name, Clients: nClients, Shards: s.shards,
		Offered:   cfg.PerClientRate * float64(nClients),
		loadPoint: newLoadPoint(res.pooled(), res.elapsed),
	}
	var ops, contended, waitNs uint64
	for i, st := range f.db.Stats() {
		ds := E16ShardStat{
			Shard:     st.Shard,
			Ops:       st.Ops - before[i].Ops,
			Contended: st.Contended - before[i].Contended,
			WaitMs:    float64(st.WaitNs-before[i].WaitNs) / 1e6,
			HeldMs:    float64(st.HeldNs-before[i].HeldNs) / 1e6,
		}
		ops += ds.Ops
		contended += ds.Contended
		waitNs += st.WaitNs - before[i].WaitNs
		if occ := ds.HeldMs / 1e3 / res.elapsed.Seconds(); occ > pt.BusiestShardOcc {
			pt.BusiestShardOcc = occ
		}
		pt.ShardStats = append(pt.ShardStats, ds)
	}
	if ops > 0 {
		pt.ContendedFrac = float64(contended) / float64(ops)
	}
	pt.LockWaitMs = float64(waitNs) / 1e6
	return pt, nil
}

// RunE16 runs the full experiment.
func RunE16(cfg E16Config) (*E16Data, error) {
	d := &E16Data{DBSize: cfg.DBSize, PerClientRate: cfg.PerClientRate, OpsPerClient: cfg.OpsPerClient, Shards: cfg.Shards}
	throughput := map[string]float64{} // "scheme/clients" -> delivered ops/s
	occupancy := map[string]float64{}  // "scheme/clients" -> busiest-shard occupancy
	forest := fmt.Sprintf("P2-forest%d", cfg.Shards)
	// The trusted scheme is the unverified floor: plain applies, no
	// proofs, no client verification, same paced offered load.
	schemes := []e13Scheme{
		{name: "trusted", shards: 1, setup: trustedSetup},
		p2Scheme("P2-1shard", 1),
		p2Scheme(forest, cfg.Shards),
	}
	for _, s := range schemes {
		for _, n := range cfg.ClientCounts {
			pt, err := e16Point(s, cfg, n)
			if err != nil {
				return nil, fmt.Errorf("E16 %s/%d: %w", s.name, n, err)
			}
			d.Points = append(d.Points, pt)
			throughput[fmt.Sprintf("%s/%d", s.name, n)] = pt.OpsPerSec
			occupancy[fmt.Sprintf("%s/%d", s.name, n)] = pt.BusiestShardOcc
		}
	}
	if t16 := throughput[forest+"/16"]; t16 > 0 {
		d.ForestRise64Over16 = throughput[forest+"/64"] / t16
	}
	if t1 := throughput["P2-1shard/64"]; t1 > 0 {
		d.ForestSpeedupAt64 = throughput[forest+"/64"] / t1
	}
	if len(cfg.ClientCounts) > 0 {
		max := cfg.ClientCounts[len(cfg.ClientCounts)-1]
		d.SingleTreeOccAtMax = occupancy[fmt.Sprintf("P2-1shard/%d", max)]
		d.ForestOccAtMax = occupancy[fmt.Sprintf("%s/%d", forest, max)]
	}
	return d, nil
}

// Table renders the data as the E16 exhibit.
func (d *E16Data) Table() *Table {
	t := &Table{
		ID:       "E16",
		Title:    "Merkle forest: verified throughput vs client population, single tree vs sharded root-of-roots",
		PaperRef: "Desideratum 3 (workload preservation) at scale; DESIGN.md \"Merkle forest & cross-shard commits\"",
		Columns:  []string{"scheme", "clients", "offered/s", "ops/s", "p50-us", "p99-us", "contended", "busiest-shard-occ"},
	}
	for _, p := range d.Points {
		contended, occ := "-", "-"
		if p.Scheme != "trusted" {
			contended = fmt.Sprintf("%.2f%%", p.ContendedFrac*100)
			occ = fmt.Sprintf("%.2f%%", p.BusiestShardOcc*100)
		}
		t.AddRow(p.Scheme, p.Clients, int(p.Offered), int(p.OpsPerSec),
			fmt.Sprintf("%.0f", p.P50Micros), fmt.Sprintf("%.0f", p.P99Micros), contended, occ)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("open loop: each client offers %.0f verified ops/s; latency is measured from the scheduled issue time, so queueing is charged, not omitted", d.PerClientRate),
		fmt.Sprintf("forest (%d shards) verified throughput at 64 clients vs 16: %.2fx (acceptance: rises with client count); vs single tree at 64: %.2fx", d.Shards, d.ForestRise64Over16, d.ForestSpeedupAt64),
		fmt.Sprintf("at the largest population the single tree's one global ordered section was held %.2f%% of the wall clock vs %.2f%% for the forest's busiest shard — occupancy is what caps throughput, and the per-shard counters in BENCH_E16.json break it down", d.SingleTreeOccAtMax*100, d.ForestOccAtMax*100))
	return t
}
