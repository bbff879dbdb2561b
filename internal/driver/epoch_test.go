package driver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/audit"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

func put(k, v string) vdb.Op { return &vdb.WriteOp{Puts: []vdb.KV{{Key: k, Val: []byte(v)}}} }

// swapSrv is a server.Server whose inner implementation can be
// replaced at runtime — the test stand-in for a server process that
// crashes and restarts from a checkpoint behind a stable endpoint.
type swapSrv struct {
	mu    sync.Mutex
	inner server.Server
}

func (s *swapSrv) get() server.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}
func (s *swapSrv) swap(in server.Server) {
	s.mu.Lock()
	s.inner = in
	s.mu.Unlock()
}
func (s *swapSrv) Protocol() server.Protocol               { return s.get().Protocol() }
func (s *swapSrv) HandleOp(r *core.OpRequest) (any, error) { return s.get().HandleOp(r) }
func (s *swapSrv) HandleAck(a *core.AckRequest) error      { return s.get().HandleAck(a) }
func (s *swapSrv) HandleGetBackups(r *core.GetBackupsRequest) (*core.BackupsResponse, error) {
	return s.get().HandleGetBackups(r)
}
func (s *swapSrv) AdvanceEpoch()       { s.get().AdvanceEpoch() }
func (s *swapSrv) Epoch() uint64       { return s.get().Epoch() }
func (s *swapSrv) DB() *vdb.DB         { return s.get().DB() }
func (s *swapSrv) Fork() server.Server { return s.get().Fork() }

// epochCluster is the epoch-audit-mode twin of cluster: a Protocol II
// server behind TCP, a broadcast hub, and n epoch-audit clients.
type epochCluster struct {
	t       *testing.T
	srv     *transport.Server
	store   *cvs.Store
	hub     *broadcast.Hub
	clients []*Client
}

func newEpochCluster(t *testing.T, hs server.Server, n int, epochLen uint64) *epochCluster {
	t.Helper()
	root := hs.DB().Root()
	store := cvs.NewStore()
	srv, err := transport.Listen("127.0.0.1:0", NewHandler(hs, store))
	if err != nil {
		t.Fatal(err)
	}
	cl := &epochCluster{t: t, srv: srv, store: store, hub: broadcast.NewHub()}
	for i := 0; i < n; i++ {
		conn, err := transport.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewP2EpochWAL(proto2.NewUser(sig.UserID(i), root, 1<<62), conn, cl.hub.Join(), n, epochLen, 0, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		cl.clients = append(cl.clients, c)
	}
	t.Cleanup(func() {
		for _, c := range cl.clients {
			c.Close()
		}
		cl.hub.Close()
		cl.srv.Close()
	})
	return cl
}

// sealAll seals every client and waits for the final closure check,
// returning the first failure.
func (cl *epochCluster) sealAll(timeout time.Duration) error {
	for _, c := range cl.clients {
		c.Seal()
	}
	for _, c := range cl.clients {
		if err := c.WaitSealed(timeout); err != nil {
			return err
		}
	}
	return nil
}

func TestEpochAuditHonestRun(t *testing.T) {
	hs := server.NewP2(vdb.New(0))
	cl := newEpochCluster(t, hs, 3, 8)
	for i := 0; i < 30; i++ {
		c := cl.clients[i%3]
		if _, err := c.Do(put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Answers were optimistic; now demand the full guarantee.
	if err := cl.sealAll(10 * time.Second); err != nil {
		t.Fatalf("honest epoch run failed audit: %v", err)
	}
	// 30 ops at epoch length 8: the tail op lands in epoch 3, all of
	// which must be closed after the seal.
	for i, c := range cl.clients {
		if got := c.Audit().Completed(); got != 4 {
			t.Fatalf("client %d completed %d epochs, want 4", i, got)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestEpochAuditReadsVerify(t *testing.T) {
	hs := server.NewP2(vdb.New(0))
	cl := newEpochCluster(t, hs, 2, 4)
	if _, err := cl.clients[0].Do(put("a", "1")); err != nil {
		t.Fatal(err)
	}
	ans, err := cl.clients[1].Do(&vdb.ReadOp{Keys: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	ra, ok := ans.(vdb.ReadAnswer)
	if !ok || !ra.Results[0].Found || string(ra.Results[0].Val) != "1" {
		t.Fatalf("optimistic read answer: %#v", ans)
	}
	if err := cl.sealAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestEpochAuditTamperedAnswerDetectedAsync is the headline deviation
// scenario of epoch mode: the server lies about an answer, the client
// has already consumed the lie optimistically, and the background
// audit must convict — with a typed EpochAuditFailure naming the bad
// counter — before the epoch closes.
func TestEpochAuditTamperedAnswerDetectedAsync(t *testing.T) {
	hs := adversary.Wrap(server.NewP2(vdb.New(0)), adversary.Config{
		Kind: adversary.TamperAnswer, TriggerOp: 3,
	})
	cl := newEpochCluster(t, hs, 2, 4)
	for i := 0; i < 4; i++ {
		// Answers return optimistically; a decode error on the tampered
		// bytes is possible and fine — the obligation is queued either way.
		cl.clients[i%2].Do(put(fmt.Sprintf("k%d", i), "v")) //nolint:errcheck
	}
	var failure error
	for _, c := range cl.clients {
		if err := c.WaitAudited(10 * time.Second); err != nil {
			failure = err
		}
	}
	if failure == nil {
		t.Fatal("tampered answer not detected by the audit")
	}
	var ef *audit.EpochAuditFailure
	if !errors.As(failure, &ef) {
		t.Fatalf("failure is %T (%v), want *audit.EpochAuditFailure", failure, failure)
	}
	if ef.Ctr != 3 {
		t.Fatalf("failure names counter %d, want the tampered op at 3", ef.Ctr)
	}
	de, ok := core.AsDetection(failure)
	if !ok {
		t.Fatalf("detection class lost: %v", failure)
	}
	if de.Class != core.BadAnswer && de.Class != core.BadVO {
		t.Fatalf("class %v, want BadAnswer or BadVO", de.Class)
	}
	// Detection is terminal on the convicted client: the next Do on it
	// must fail fast with the same typed failure.
	for _, c := range cl.clients {
		if c.Err() == nil {
			continue
		}
		if _, err := c.Do(&vdb.NopOp{}); err == nil {
			t.Fatal("client continued past a recorded audit failure")
		}
	}
}

// TestEpochAuditForkDetectedAtClosure forks the user population onto
// two histories; per-record verification stays green on both branches,
// so conviction must come from the epoch closure check.
func TestEpochAuditForkDetectedAtClosure(t *testing.T) {
	hs := adversary.Wrap(server.NewP2(vdb.New(0)), adversary.Config{
		Kind: adversary.Fork, TriggerOp: 5,
		GroupB: map[sig.UserID]bool{1: true},
	})
	cl := newEpochCluster(t, hs, 2, 4)
	for i := 0; i < 12; i++ {
		if _, err := cl.clients[i%2].Do(put(fmt.Sprintf("k%d", i), "v")); err != nil {
			break // admission gate may surface the failure mid-run
		}
	}
	err := cl.sealAll(10 * time.Second)
	if err == nil {
		t.Fatal("fork not detected")
	}
	var ef *audit.EpochAuditFailure
	if !errors.As(err, &ef) {
		t.Fatalf("failure is %T (%v), want *audit.EpochAuditFailure", err, err)
	}
	de, ok := core.AsDetection(err)
	if !ok || de.Class != core.SyncMismatch {
		t.Fatalf("want SyncMismatch at epoch closure, got %v", err)
	}
}

// TestEpochAuditAdmissionStallsOneEpochAhead pins the detection bound
// at the driver: with a silent peer, epoch 0 cannot close, so Do runs
// through epoch 0 and the op that crosses into epoch 1, and the next
// Do blocks until the peer's seal closes epoch 0.
func TestEpochAuditAdmissionStallsOneEpochAhead(t *testing.T) {
	const epochLen = 4
	cl := newEpochCluster(t, server.NewP2(vdb.New(0)), 2, epochLen)
	c := cl.clients[0]
	for i := 0; i <= epochLen; i++ { // g = 1..5: epoch 0, then the crossing op
		if _, err := c.Do(put(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(put("ahead", "v"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Do ran two epochs ahead of the audit (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := c.Audit().Completed(); got != 0 {
		t.Fatalf("%d epochs closed with the peer silent, want 0", got)
	}
	cl.clients[1].Seal() // the peer's final registers close epoch 0
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Do after epoch 0 closed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do still blocked after the peer sealed")
	}
	if err := cl.sealAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestEpochAuditCheckpointRestore restarts the server from a
// checkpoint twice — once cut exactly on an epoch boundary, once cut
// mid-epoch with the audit window still open — and the audit must stay
// clean across both: the counters and heads a checkpoint preserves are
// exactly what the epoch cut is defined over.
func TestEpochAuditCheckpointRestore(t *testing.T) {
	sw := &swapSrv{inner: server.NewP2(vdb.New(0))}
	cl := newEpochCluster(t, sw, 2, 4)

	restart := func() {
		snap, err := server.CheckpointP2(sw.get(), cl.store, nil)
		if err != nil {
			t.Fatal(err)
		}
		restored, _, _, err := server.RestoreP2(snap)
		if err != nil {
			t.Fatal(err)
		}
		sw.swap(restored)
	}
	do := func(i int) {
		t.Helper()
		if _, err := cl.clients[i%2].Do(put(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	for i := 0; i < 4; i++ { // ops 1..4: epoch 0 exactly full
		do(i)
	}
	for _, c := range cl.clients { // drain so the checkpoint head is audited
		if err := c.WaitAudited(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	restart() // boundary-aligned restart

	for i := 4; i < 6; i++ { // ops 5..6: epoch 1 half-open
		do(i)
	}
	restart() // mid-epoch restart, unaudited window crosses it

	for i := 6; i < 10; i++ {
		do(i)
	}
	if err := cl.sealAll(10 * time.Second); err != nil {
		t.Fatalf("audit across checkpoint/restore: %v", err)
	}
}

// TestEpochAuditStress64Clients races 64 clients against the shared
// auditor pipeline; run under -race this is the concurrency soak for
// the whole submit/verify/assemble/seal machinery.
func TestEpochAuditStress64Clients(t *testing.T) {
	const (
		clients  = 64
		opsPer   = 8
		epochLen = 64
	)
	hs := server.NewP2(vdb.New(0))
	cl := newEpochCluster(t, hs, clients, epochLen)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for u := 0; u < clients; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if _, err := cl.clients[u].Do(put(fmt.Sprintf("u%d-k%d", u, i), "v")); err != nil {
					errs <- fmt.Errorf("user %d op %d: %w", u, i, err)
					return
				}
			}
			// A client that stops operating must seal, or peers that
			// have raced ahead stall at admission waiting for its epoch
			// boundary reports — the epoch-mode mirror of the sync
			// barrier's liveness rule. Seal is idempotent, so sealAll
			// below is still fine.
			cl.clients[u].Seal()
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := cl.sealAll(60 * time.Second); err != nil {
		t.Fatalf("stress run failed audit: %v", err)
	}
	// Per-client Completed() varies: after the all-seals closure an
	// auditor's completed jumps to the highest epoch IT observed, and a
	// client whose last op landed in an early epoch observed fewer. The
	// client that performed the final global op saw them all.
	maxDone := uint64(0)
	for i, c := range cl.clients {
		st := c.Audit().Stats()
		if st.Audited != st.Submitted {
			t.Fatalf("client %d drained %d of %d records", i, st.Audited, st.Submitted)
		}
		if got := c.Audit().Completed(); got > maxDone {
			maxDone = got
		}
	}
	if want := uint64(clients * opsPer / epochLen); maxDone != want {
		t.Fatalf("frontier client completed %d epochs, want %d", maxDone, want)
	}
}
