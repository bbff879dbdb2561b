package bench

import (
	"fmt"
	"net"
	"time"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/witness"
)

// E15 measures witness replication under failure: a full Protocol II
// deployment whose primary publishes signed root commitments to a set
// of witness nodes is killed mid-workload behind faulty connections,
// and a witness is promoted from the latest checksummed checkpoint it
// holds. The claims under test:
//
//  1. Zero false alarms on benign failover: the kill, the failover to
//     the promoted endpoint, and every retry in between never produce
//     a deviation report — and the witness cross-check each client
//     runs before acknowledging a sync round stays silent, because a
//     witness quorum that is merely unreachable (ErrNoQuorum) is an
//     availability fact, not a detection.
//  2. Exactly-once across promotion: the promoted server's final
//     operation counter equals the number of operations performed —
//     clients replayed in-flight ops through the restored session
//     table, so nothing was lost and nothing double-applied.
//  3. Bounded fork detection: a forked commitment stream split across
//     disjoint witness subsets is convicted within ONE gossip round,
//     and the resulting evidence bundle verifies offline — two signed
//     commitments that cannot both belong to one honest history.
//  4. Benign gossip is silent: an honest commitment stream scattered
//     across the witnesses converges with zero evidence minted.

// E15Config parameterizes RunE15.
type E15Config struct {
	// DBSize is the number of preloaded keys.
	DBSize int
	// Users is the client population.
	Users int
	// OpsPerUser is the workload each client performs.
	OpsPerUser int
	// K is the sync period (every K ops a broadcast barrier round).
	K uint64
	// Witnesses is the witness population.
	Witnesses int
	// CommitEvery is the primary's commitment cadence in operations.
	CommitEvery uint64
	// Seed derives injector seeds and client jitter seeds.
	Seed int64
	// ResetProb and TruncateProb are the per-I/O fault rates on every
	// client's server and hub connections.
	ResetProb    float64
	TruncateProb float64
}

// DefaultE15Config is what cmd/tcvs-bench runs.
func DefaultE15Config() E15Config {
	return E15Config{
		DBSize: 500, Users: 4, OpsPerUser: 100, K: 8,
		Witnesses: 3, CommitEvery: 4, Seed: 43,
		ResetProb: 0.02, TruncateProb: 0.01,
	}
}

// E15Data is the full experiment result.
type E15Data struct {
	Users       int
	OpsPerUser  int
	TotalOps    uint64
	K           uint64
	Witnesses   int
	CommitEvery uint64

	FaultsInjected      uint64
	TransportReconnects uint64
	Failovers           uint64
	FailoverMillis      float64

	FalseAlarms         int
	NoQuorumSkips       uint64
	FinalCtr            uint64
	CtrMatchesOps       bool
	PromotedRootMatches bool

	ForkDetected            bool
	ForkDetectGossipRounds  int
	EvidenceVerifiesOffline bool

	BenignGossipEvidence int
}

// RunE15 runs the full experiment.
func RunE15(cfg E15Config) (*E15Data, error) {
	d := &E15Data{
		Users: cfg.Users, OpsPerUser: cfg.OpsPerUser,
		TotalOps: uint64(cfg.Users) * uint64(cfg.OpsPerUser), K: cfg.K,
		Witnesses: cfg.Witnesses, CommitEvery: cfg.CommitEvery,
	}
	if err := runE15Failover(cfg, d); err != nil {
		return nil, err
	}
	if err := runE15Fork(d); err != nil {
		return nil, err
	}
	if err := runE15BenignGossip(d); err != nil {
		return nil, err
	}
	return d, nil
}

// runE15Failover is phase 1: kill the primary mid-workload, promote a
// witness from its stored checkpoint, and let the clients fail over.
func runE15Failover(cfg E15Config, d *E15Data) error {
	// Reserve the promotion address up front so every client can carry
	// it as its second endpoint from the start (a real deployment would
	// distribute the witness addresses the same way).
	lisB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addrB := lisB.Addr().String()
	lisB.Close()

	dep, err := deployFaulty(deployConfig{
		srv: server.NewP2(seedDB(cfg.DBSize)), users: cfg.Users, k: cfg.K,
		witnesses: cfg.Witnesses, pubEvery: cfg.CommitEvery,
	}, cfg.Seed, cfg.ResetProb, cfg.TruncateProb, addrB)
	if err != nil {
		return err
	}
	defer dep.close()
	run := startFailoverRun(dep.clients, cfg.OpsPerUser, cfg.DBSize)

	// Kill the primary once the workload is half done. As in E14 the
	// transport drains first, then the checkpoint cut is taken. The cut
	// is then SHIPPED to the witnesses (validated envelope + commitment
	// at its head) and the primary's state is abandoned: recovery
	// happens from what the witnesses hold, not from the dead process.
	if err := run.awaitHalf(); err != nil {
		return fmt.Errorf("E15: %w", err)
	}
	killStart := time.Now()
	dep.ts.Close()
	snap, err := dep.checkpointCut()
	if err != nil {
		return fmt.Errorf("E15 checkpoint: %w", err)
	}
	if err := dep.pub.ShipSnapshot(snap); err != nil {
		return fmt.Errorf("E15 ship snapshot: %w", err)
	}
	cutRoot := dep.srv.DB().Root()

	// Promote a witness: it re-verifies the envelope checksum, restores
	// the database, and cross-checks the restored head against the
	// signed commitment it holds for that counter.
	prom, err := witness.Promote(dep.nodes[0], "primary")
	if err != nil {
		return fmt.Errorf("E15 promote: %w", err)
	}
	d.PromotedRootMatches = prom.Root == cutRoot
	lis2, err := net.Listen("tcp", addrB)
	if err != nil {
		return fmt.Errorf("E15 rebind %s: %w", addrB, err)
	}
	dep.ts = transport.ServeListener(lis2, driver.NewHandler(prom.Server, prom.Store), transport.Options{Sessions: prom.Sessions})
	run.resumed()

	if err := run.wait(); err != nil {
		return fmt.Errorf("E15 phase 1 must complete cleanly: %w", err)
	}
	d.FalseAlarms = dep.drain(10 * time.Second)
	for _, cl := range dep.clients {
		d.NoQuorumSkips += cl.NoQuorumSkips()
	}
	if t := run.recoveredAt(); t > 0 {
		d.FailoverMillis = float64(t-killStart.UnixNano()) / 1e6
	}
	d.FinalCtr = prom.Server.DB().Ctr()
	d.CtrMatchesOps = d.FinalCtr == d.TotalOps
	d.FaultsInjected = dep.faultsInjected()
	for _, c := range dep.callers {
		d.TransportReconnects += c.Reconnects()
		d.Failovers += c.Failovers()
	}
	return nil
}

// e15Root derives a distinct deterministic digest per (branch, index).
func e15Root(branch byte, i int) digest.Digest {
	var r digest.Digest
	r[0], r[1] = branch, byte(i)
	return r
}

// e15Chain signs one branch's commitments seq from..to, chained onto
// prev.
func e15Chain(wid *witness.Identity, branch byte, from, to int, prev digest.Digest) []*forensics.Commitment {
	var cs []*forensics.Commitment
	for i := from; i <= to; i++ {
		cs = append(cs, wid.Commit(uint64(i), uint64(i), e15Root(branch, i), prev))
		prev = e15Root(branch, i)
	}
	return cs
}

// submitCommits delivers commitments to a witness over its wire
// protocol.
func submitCommits(n *witness.Node, wid *witness.Identity, cs ...*forensics.Commitment) error {
	caller := transport.NewInproc(n.Handler())
	defer caller.Close()
	for _, c := range cs {
		if _, err := caller.Call(&witness.SubmitRequest{Commit: c, Pub: wid.Public()}); err != nil {
			return err
		}
	}
	return nil
}

// runE15Fork is phase 3's teeth check: a forked primary feeds branch A
// to one witness and branch B to another. Neither witness sees a
// conflict locally; the fork must be convicted by gossip, and the
// experiment counts the rounds until evidence exists (the design bound
// is one round for a full mesh).
func runE15Fork(d *E15Data) error {
	wid, err := witness.NewIdentity("primary")
	if err != nil {
		return err
	}
	w1 := witness.NewNode("w1")
	w2 := witness.NewNode("w2")
	w1.AddPeer("w2", inprocWitness(w2))
	w2.AddPeer("w1", inprocWitness(w1))
	w1.Pin("primary", wid.Public())
	w2.Pin("primary", wid.Public())

	// Shared prefix (seq 1, 2), then the histories diverge at seq 3.
	shared := e15Chain(wid, 'S', 1, 2, digest.Zero)
	for i, w := range []*witness.Node{w1, w2} {
		if err := submitCommits(w, wid, shared...); err != nil {
			return err
		}
		if err := submitCommits(w, wid, e15Chain(wid, "AB"[i], 3, 5, e15Root('S', 2))...); err != nil {
			return err
		}
	}
	if len(w1.Evidence()) != 0 || len(w2.Evidence()) != 0 {
		return fmt.Errorf("E15 fork phase: evidence before any gossip")
	}

	rounds := 0
	for rounds < 5 && (len(w1.Evidence()) == 0 || len(w2.Evidence()) == 0) {
		if err := w1.GossipOnce(); err != nil {
			return err
		}
		rounds++
	}
	d.ForkDetectGossipRounds = rounds
	evs := w1.Evidence()
	d.ForkDetected = len(evs) > 0 && len(w2.Evidence()) > 0
	if !d.ForkDetected {
		return fmt.Errorf("E15 fork phase: no evidence after %d gossip rounds", rounds)
	}
	d.EvidenceVerifiesOffline = true
	for _, ev := range evs {
		if ev.Verify() != nil {
			d.EvidenceVerifiesOffline = false
		}
	}
	return nil
}

// runE15BenignGossip scatters an honest commitment stream across three
// witnesses and gossips until they converge: no evidence may be minted
// from mere propagation lag.
func runE15BenignGossip(d *E15Data) error {
	wid, err := witness.NewIdentity("primary")
	if err != nil {
		return err
	}
	nodes := make([]*witness.Node, 3)
	for i := range nodes {
		nodes[i] = witness.NewNode(fmt.Sprintf("b%d", i))
		nodes[i].Pin("primary", wid.Public())
	}
	for i, n := range nodes {
		for j, p := range nodes {
			if i == j {
				continue
			}
			n.AddPeer(p.Name(), inprocWitness(p))
		}
	}
	for i, c := range e15Chain(wid, 'H', 1, 9, digest.Zero) {
		if err := submitCommits(nodes[(i+1)%3], wid, c); err != nil {
			return err
		}
	}
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			if err := n.GossipOnce(); err != nil {
				return err
			}
		}
	}
	for _, n := range nodes {
		d.BenignGossipEvidence += len(n.Evidence())
		latest := n.Latest("primary")
		if latest == nil || latest.Seq != 9 {
			return fmt.Errorf("E15 benign gossip: %s did not converge", n.Name())
		}
	}
	return nil
}

// Table renders the data as the E15 exhibit.
func (d *E15Data) Table() *Table {
	t := &Table{
		ID:       "E15",
		Title:    "Witness replication: failover by promotion, fork conviction by gossip",
		PaperRef: "Theorem 3.1's external channel made infrastructural; DESIGN.md \"Witness replication & failover\"",
		Columns:  []string{"metric", "value"},
	}
	t.AddRow("users x ops/user", fmt.Sprintf("%d x %d (k=%d)", d.Users, d.OpsPerUser, d.K))
	t.AddRow("witnesses / commit cadence", fmt.Sprintf("%d / every %d ops", d.Witnesses, d.CommitEvery))
	t.AddRow("faults injected", d.FaultsInjected)
	t.AddRow("transport reconnects", d.TransportReconnects)
	t.AddRow("failovers to promoted witness", d.Failovers)
	t.AddRow("failover latency (kill -> all progressing)", fmt.Sprintf("%.1f ms", d.FailoverMillis))
	t.AddRow("false deviation alarms", d.FalseAlarms)
	t.AddRow("witness checks skipped (no quorum)", d.NoQuorumSkips)
	t.AddRow("final ctr == total ops", fmt.Sprintf("%v (%d)", d.CtrMatchesOps, d.FinalCtr))
	t.AddRow("promoted root == checkpoint root", d.PromotedRootMatches)
	t.AddRow("fork convicted within gossip rounds", fmt.Sprintf("%v (%d round)", d.ForkDetected, d.ForkDetectGossipRounds))
	t.AddRow("evidence verifies offline", d.EvidenceVerifiesOffline)
	t.AddRow("benign gossip evidence minted", d.BenignGossipEvidence)
	t.Notes = append(t.Notes,
		"promotion re-verifies everything: envelope checksum, restored head vs declared head, and the witness's own signed commitment at that counter — a witness cannot be tricked into promoting state it never vouched for",
		"clients keep one session id across failover; the promoted server restored the primary's session table from the shipped checkpoint, so retried in-flight ops replay instead of double-applying",
		"divergence and unavailability are distinct outcomes (ErrDiverged vs ErrNoQuorum): a dead primary or unreachable witness can delay checks but never manufacture an alarm")
	return t
}
