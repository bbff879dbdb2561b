package driver

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trustedcvs/internal/audit"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/fault"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// TestOverloadShedNotJournaled pins the server half of "a refusal is
// atomic": an op whose propagated deadline expires before dispatch is
// refused with the typed error BEFORE the protocol server or its op
// journal see it. The journal replay after the run must contain
// exactly the delivered ops — a phantom entry for a refused op would
// resurrect state no client was ever answered for.
func TestOverloadShedNotJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	rec, err := server.OpenDurable(path, 0, 4)
	if err != nil {
		t.Fatalf("open record: %v", err)
	}
	db := rec.Server().DB()
	inner := rec.Handler(NewHandler(rec.Server(), rec.Store()))
	// SyncRequests park on the release gate, so one of them can pin the
	// single admission slot for as long as the test needs.
	release := make(chan struct{})
	handler := func(req any) (any, error) {
		if _, ok := req.(*core.SyncRequest); ok {
			<-release
		}
		return inner(req)
	}
	ts, err := transport.ListenOpts("127.0.0.1:0", handler, transport.Options{
		IdleTimeout: -1,
		// The transport refuses an expired budget in front of the whole
		// decorated chain, journal-recording handler included.
		Admission: transport.AdmissionOptions{MinLimit: 1, MaxLimit: 1, QueueDepth: 4},
		Classify:  Classify,
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ts.Close()
	dial := func() *wire.Conn {
		nc, err := net.Dial("tcp", ts.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { nc.Close() })
		return wire.NewConn(nc)
	}
	wc := dial()

	// Pin the slot with a gated background request on its own conn.
	blocker := dial()
	bdone := make(chan struct{})
	go func() {
		defer close(bdone)
		blocker.Call(&core.SyncRequest{From: sig.UserID(99)})
	}()
	for ts.AdmissionStats().Inflight != 1 {
		time.Sleep(time.Millisecond)
	}

	op := func(i int) *core.OpRequest {
		return &core.OpRequest{User: 0, Op: &vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}}
	}
	// With the slot pinned, a short-budget op parks in the admission
	// queue until its propagated deadline lapses: the typed refusal must
	// come back with nothing applied and nothing journaled.
	_, err = wc.CallBudget(op(0), 5*time.Millisecond)
	if !errors.Is(err, wire.ErrDeadlineExceeded) {
		t.Fatalf("expired op got %v, want typed wire.ErrDeadlineExceeded", err)
	}
	if got := db.Ctr(); got != 0 {
		t.Fatalf("refused op advanced the counter to %d — not atomic", got)
	}
	_, err = wc.CallBudget(op(2), 5*time.Millisecond)
	if !errors.Is(err, wire.ErrDeadlineExceeded) {
		t.Fatalf("second expired op got %v", err)
	}
	close(release)
	<-bdone
	// A live op applies and journals normally alongside the refusals.
	if _, err := wc.CallBudget(op(1), 5*time.Second); err != nil {
		t.Fatalf("live op: %v", err)
	}
	if got := db.Ctr(); got != 1 {
		t.Fatalf("counter = %d, want exactly the one delivered op", got)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("journal degraded during refusals: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close record: %v", err)
	}
	// Replay the journal alone over a fresh server (both snapshot
	// generations gone): exactly one op comes back.
	for _, gen := range []string{path, durable.PrevPath(path)} {
		if err := os.Remove(gen); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	rec2, err := server.OpenDurable(path, 0, 4)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer rec2.Close()
	_, applied, pushes := rec2.Recovered()
	if db2 := rec2.Server().DB(); applied != 1 || pushes != 0 || db2.Ctr() != 1 {
		t.Fatalf("replay applied %d ops / %d pushes (ctr %d), want exactly the 1 delivered op",
			applied, pushes, db2.Ctr())
	}
}

// refusingCaller wraps a transport.Caller, refusing chosen OpRequests
// with the server's typed deadline error — the client-side view of a
// server that shed the op before touching state.
type refusingCaller struct {
	transport.Caller
	refuse func(*core.OpRequest) bool
}

// errRemoteDeadline mimics the wire client's decoding of a server-side
// typed refusal: it is both ErrRemote (delivered verdict) and
// ErrDeadlineExceeded (the typed cause).
type errRemoteDeadline struct{}

func (errRemoteDeadline) Error() string { return "wire: remote error: op abandoned: deadline exceeded" }
func (errRemoteDeadline) Is(target error) bool {
	return target == wire.ErrRemote || target == wire.ErrDeadlineExceeded
}

func (c *refusingCaller) Call(req any) (any, error) {
	if r, ok := req.(*core.OpRequest); ok && c.refuse(r) {
		return nil, errRemoteDeadline{}
	}
	return c.Caller.Call(req)
}

// TestOverloadShedCreatesNoObligations pins the client half of the
// atomic-refusal contract: an op the server refuses with the typed
// deadline error produces NO audit obligation — the epoch auditor's
// Submitted count does not move, the user's register state is
// untouched (the next op reuses the slot), and the final closure check
// passes as if the refused op had never been issued.
func TestOverloadShedCreatesNoObligations(t *testing.T) {
	const epochLen = 4
	db := vdb.New(0)
	ts, err := transport.ListenOpts("127.0.0.1:0", NewHandler(server.NewP2(db), cvs.NewStore()),
		transport.Options{IdleTimeout: -1})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ts.Close()
	hub, err := broadcast.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatalf("hub: %v", err)
	}
	defer hub.Close()
	conn, err := transport.Dial(ts.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var calls, refused atomic.Int64
	rc := &refusingCaller{Caller: conn, refuse: func(r *core.OpRequest) bool {
		// Refuse every third op at the caller, three times, before it
		// reaches the server — the same cut a pre-state shed makes.
		return refused.Load() < 3 && calls.Add(1)%3 == 0
	}}
	u := proto2.NewUser(sig.UserID(0), db.Root(), 1<<62)
	dc, err := NewP2EpochWAL(u, rc, broadcast.DialHubResume(hub.Addr()), 1, epochLen, 0, "", nil)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer dc.Close()

	delivered := 0
	for i := 0; delivered < 3*epochLen; i++ {
		_, err := dc.Do(&vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}})
		if err == nil {
			delivered++
			continue
		}
		if !errors.Is(err, wire.ErrDeadlineExceeded) {
			t.Fatalf("op %d: %v", i, err)
		}
		refused.Add(1)
		// A refused op must leave the client reusable: Submitted may
		// not have moved for it.
		if st := dc.Audit().Stats(); st.Submitted != uint64(delivered) {
			t.Fatalf("refused op left an obligation: submitted %d after %d deliveries", st.Submitted, delivered)
		}
	}
	if refused.Load() == 0 {
		t.Fatal("no op was refused; the test proved nothing")
	}
	dc.Seal()
	if err := dc.WaitSealed(30 * time.Second); err != nil {
		t.Fatalf("closure failed after refusals: %v", err)
	}
	st := dc.Audit().Stats()
	// Obligations: one per delivered op plus the seal; every refused op
	// absent; all drained.
	if st.Submitted != uint64(delivered)+1 {
		t.Fatalf("submitted = %d, want %d delivered + 1 seal", st.Submitted, delivered)
	}
	if st.Audited != st.Submitted {
		t.Fatalf("dangling obligations: %d/%d audited", st.Audited, st.Submitted)
	}
	if got := db.Ctr(); got != uint64(delivered) {
		t.Fatalf("server counter = %d, want %d delivered ops", got, delivered)
	}
}

// TestShedDegradeToSyncSticky runs the two degradations together: a
// client whose audit journal disk died (sticky degrade-to-sync, every
// submit verified inline) keeps operating — and stays degraded — while
// the server is actively shedding a background flood around it. User
// ops outrank the flood, the degraded auditor's inline verification
// never blocks on shed traffic, and the final closure is clean.
func TestShedDegradeToSyncSticky(t *testing.T) {
	const epochLen = 4
	db := vdb.New(0)
	inner := NewHandler(server.NewP2(db), cvs.NewStore())
	// A couple of milliseconds of synthetic service per request makes
	// the flood actually contend for the single admission slot.
	handler := func(req any) (any, error) {
		resp, err := inner(req)
		time.Sleep(2 * time.Millisecond)
		return resp, err
	}
	ts, err := transport.ListenOpts("127.0.0.1:0", handler, transport.Options{
		IdleTimeout: -1,
		Admission:   transport.AdmissionOptions{MinLimit: 1, MaxLimit: 1, QueueDepth: 4},
		Classify:    Classify,
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ts.Close()
	hub, err := broadcast.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatalf("hub: %v", err)
	}
	defer hub.Close()

	// Background flood: 8 connections hammering the bottom class with
	// short budgets, far more arrivals than one 2ms slot serves.
	stop := make(chan struct{})
	var fwg sync.WaitGroup
	for i := 0; i < 8; i++ {
		fwg.Add(1)
		go func(i int) {
			defer fwg.Done()
			nc, err := net.Dial("tcp", ts.Addr())
			if err != nil {
				return
			}
			defer nc.Close()
			wc := wire.NewConn(nc)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := wc.CallBudget(&core.SyncRequest{From: sig.UserID(100 + i)}, 50*time.Millisecond)
				if err != nil && !errors.Is(err, wire.ErrRemote) &&
					!errors.Is(err, wire.ErrOverloaded) && !errors.Is(err, wire.ErrDeadlineExceeded) {
					return // transport fault (shutdown)
				}
			}
		}(i)
	}
	defer func() { close(stop); fwg.Wait() }()

	// The verified client's journal dies on its 3rd fsync — the 2nd
	// append's flush, after the first segment's zero fill: sticky
	// degrade-to-sync mid-workload, with the flood already raging.
	conn, err := transport.Dial(ts.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	ffs := &fault.FaultyFS{CrashAtSync: 3}
	u := proto2.NewUser(sig.UserID(0), db.Root(), 1<<62)
	dc, err := NewP2EpochWAL(u, conn, broadcast.DialHubResume(hub.Addr()), 1, epochLen, 0, t.TempDir(), ffs)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer dc.Close()

	for i := 0; i < 4*epochLen; i++ {
		if _, err := dc.Do(&vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}); err != nil {
			t.Fatalf("op %d under flood: %v", i, err)
		}
	}
	st := dc.Audit().Stats()
	if st.Durability != audit.DurabilityDegradedSync {
		t.Fatalf("durability = %v, want sticky degraded-sync", st.Durability)
	}
	if st.Audited != st.Submitted {
		t.Fatalf("degraded mode left %d records unverified under shedding", st.Submitted-st.Audited)
	}
	dc.Seal()
	if err := dc.WaitSealed(30 * time.Second); err != nil {
		t.Fatalf("degraded closure under shedding: %v", err)
	}
	// Still degraded after the drain — the state is sticky, not
	// load-dependent.
	if st := dc.Audit().Stats(); st.Durability != audit.DurabilityDegradedSync {
		t.Fatalf("durability flipped back to %v under load", st.Durability)
	}
	ast := ts.AdmissionStats()
	var refusals uint64
	for c := transport.Priority(0); c < transport.NumPriorities; c++ {
		refusals += ast.Shed[c] + ast.Expired[c]
	}
	if refusals == 0 {
		t.Fatal("the flood was never shed; the test proved nothing about concurrent shedding")
	}
	if ast.Shed[transport.PriorityUser]+ast.Expired[transport.PriorityUser] != 0 {
		t.Fatalf("user-class ops were refused (%d shed, %d expired) despite priority",
			ast.Shed[transport.PriorityUser], ast.Expired[transport.PriorityUser])
	}
}
