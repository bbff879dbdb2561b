package audit

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

func put(k, v string) vdb.Op { return &vdb.WriteOp{Puts: []vdb.KV{{Key: k, Val: []byte(v)}}} }

// loopback wires an auditor's Publish straight back into its own
// SubmitReport, standing in for the broadcast hub in a one-client
// world.
func loopback(ap **Auditor) func(Report) error {
	return func(r Report) error {
		(*ap).SubmitReport(r)
		return nil
	}
}

func TestEpochOf(t *testing.T) {
	a := &Auditor{epoch: 4}
	cases := map[uint64]uint64{0: 0, 1: 0, 4: 0, 5: 1, 8: 1, 9: 2}
	for g, want := range cases {
		if got := a.epochOf(g); got != want {
			t.Errorf("epochOf(%d) = %d, want %d", g, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	u := proto2.NewUser(1, vdb.New(0).Root(), 100)
	pub := func(Report) error { return nil }
	bad := []Config{
		{Epoch: 4, Users: 1, Publish: pub}, // no user
		{User: u, Users: 1, Publish: pub},  // no epoch
		{User: u, Epoch: 4, Publish: pub},  // no users
		{User: u, Epoch: 4, Users: 1},      // no publish
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

// TestHonestEpochRun drives a single client through several epochs of
// honest operations: every epoch must close, the seal must cover the
// tail, and no failure may be recorded.
func TestHonestEpochRun(t *testing.T) {
	db := vdb.New(0)
	srv := proto2.NewServer(db)
	u := proto2.NewUser(1, db.Root(), 1<<20)

	var aud *Auditor
	a, err := New(Config{User: u, Epoch: 4, Users: 1, Publish: loopback(&aud)})
	if err != nil {
		t.Fatal(err)
	}
	aud = a
	defer a.Stop()

	for i := 0; i < 10; i++ {
		if err := a.WaitAdmissible(); err != nil {
			t.Fatalf("op %d: WaitAdmissible: %v", i, err)
		}
		op := put(fmt.Sprintf("k%d", i), "v")
		resp, err := srv.HandleOp(u.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Submit(Record{Op: op, Resp: resp}); err != nil {
			t.Fatalf("op %d: Submit: %v", i, err)
		}
		a.NoteEpoch(resp.Ctr + 1)
	}
	a.Seal()
	if err := a.WaitSealed(10 * time.Second); err != nil {
		t.Fatalf("WaitSealed: %v", err)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("honest run recorded failure: %v", err)
	}
	// 10 ops, epoch length 4: the last op (g=10) lands in epoch 2, and
	// the all-sealed check closes everything through it.
	if got := a.Completed(); got != 3 {
		t.Fatalf("Completed() = %d, want 3", got)
	}
	st := a.Stats()
	if st.Submitted != 11 || st.Audited != 11 { // 10 records + 1 seal
		t.Fatalf("stats: %+v", st)
	}
	// All single-client ops after the first are server-adjacent, so the
	// replay chain should have carried most of them.
	if st.ChainHits == 0 {
		t.Fatalf("replay chain never hit: %+v", st)
	}
}

// TestMidEpochFailureIsTyped tampers with an answer whose (optimistic)
// result the client already consumed; the background audit must
// surface a typed *EpochAuditFailure naming the bad counter, with the
// underlying detection class reachable through errors.As.
func TestMidEpochFailureIsTyped(t *testing.T) {
	db := vdb.New(0)
	srv := proto2.NewServer(db)
	u := proto2.NewUser(1, db.Root(), 1<<20)

	var aud *Auditor
	a, err := New(Config{User: u, Epoch: 4, Users: 1, Publish: loopback(&aud)})
	if err != nil {
		t.Fatal(err)
	}
	aud = a
	defer a.Stop()

	for i := 0; i < 3; i++ {
		op := put(fmt.Sprintf("k%d", i), "v")
		resp, err := srv.HandleOp(u.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			resp.Answer = append([]byte(nil), resp.Answer...)
			resp.Answer[0] ^= 0xff // lie about the answer, post-hoc
		}
		if err := a.Submit(Record{Op: op, Resp: resp}); err != nil {
			break // terminal failure already visible to the hot path
		}
	}
	if err := a.WaitDrained(10 * time.Second); err == nil {
		t.Fatal("tampered answer not detected")
	}
	var ef *EpochAuditFailure
	if !errors.As(a.Err(), &ef) {
		t.Fatalf("failure is %T (%v), want *EpochAuditFailure", a.Err(), a.Err())
	}
	if ef.Ctr != 2 {
		t.Fatalf("failure names counter %d, want 2", ef.Ctr)
	}
	if ef.Epoch != 0 {
		t.Fatalf("failure names epoch %d, want 0", ef.Epoch)
	}
	if _, ok := core.AsDetection(a.Err()); !ok {
		t.Fatalf("detection class lost: %v", a.Err())
	}
	// Submits after a terminal failure must report it, not enqueue.
	if err := a.Submit(Record{}); err == nil {
		t.Fatal("Submit after failure returned nil")
	}
	if err := a.WaitAdmissible(); err == nil {
		t.Fatal("WaitAdmissible after failure returned nil")
	}
}

// TestQueueFullDegradesNeverDrops blocks the auditor (via a stalled
// publish) while submitting past the queue capacity: the overflow
// submit must block — counted as a degradation — and every record must
// still be audited once the auditor resumes.
func TestQueueFullDegradesNeverDrops(t *testing.T) {
	db := vdb.New(0)
	srv := proto2.NewServer(db)
	u := proto2.NewUser(1, db.Root(), 1<<20)

	release, stalled := make(chan struct{}), make(chan struct{})
	var stallOnce sync.Once
	var aud *Auditor
	a, err := New(Config{
		User: u, Epoch: 1 << 20, Users: 1, Queue: 1,
		Publish: func(r Report) error {
			stallOnce.Do(func() { close(stalled) })
			<-release // stall the worker inside the seal publish
			aud.SubmitReport(r)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	aud = a
	defer a.Stop()

	a.Seal()
	// Submit only once the worker is stalled in the seal's publish: a
	// worker still draining its batch would take the first record with
	// the seal and leave room for the second.
	<-stalled

	// Two valid records: the first fills the queue (cap 1), the second
	// must block rather than drop.
	recs := make([]Record, 2)
	for i := range recs {
		op := put(fmt.Sprintf("k%d", i), "v")
		resp, err := srv.HandleOp(u.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = Record{Op: op, Resp: resp}
	}
	if err := a.Submit(recs[0]); err != nil {
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	go func() { submitted <- a.Submit(recs[1]) }()

	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Degraded == 0 {
		if time.Now().After(deadline) {
			t.Fatal("overflow submit never counted as degraded")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-submitted:
		t.Fatalf("overflow submit returned early: %v", err)
	default:
	}

	close(release)
	if err := <-submitted; err != nil {
		t.Fatalf("overflow submit: %v", err)
	}
	if err := a.WaitDrained(10 * time.Second); err != nil {
		t.Fatalf("WaitDrained: %v", err)
	}
	st := a.Stats()
	if st.Audited != 3 { // seal + 2 records: nothing dropped
		t.Fatalf("audited %d records, want 3 (%+v)", st.Audited, st)
	}
	if st.Degraded == 0 || st.HighWater < 1 {
		t.Fatalf("backpressure stats not recorded: %+v", st)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("backpressure caused failure: %v", err)
	}
}

// TestSkippedEpochBoundaries interleaves two clients so that one of
// them crosses several epoch boundaries in a single step; the auditor
// must emit one snapshot per skipped boundary, and the seal must stand
// in for epochs past a client's last operation.
func TestSkippedEpochBoundaries(t *testing.T) {
	db := vdb.New(0)
	srv := proto2.NewServer(db)
	u0 := proto2.NewUser(1, db.Root(), 1<<20)
	u1 := proto2.NewUser(2, db.Root(), 1<<20)

	var aud *Auditor
	a, err := New(Config{User: u0, Epoch: 2, Users: 2, Publish: loopback(&aud)})
	if err != nil {
		t.Fatal(err)
	}
	aud = a
	defer a.Stop()

	do0 := func(i int) Record {
		op := put(fmt.Sprintf("a%d", i), "v")
		resp, err := srv.HandleOp(u0.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		return Record{Op: op, Resp: resp}
	}
	do1 := func(i int) {
		op := put(fmt.Sprintf("b%d", i), "v")
		resp, err := srv.HandleOp(u1.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u1.HandleResponse(op, resp); err != nil {
			t.Fatal(err)
		}
	}

	// Global order: u0 at g=1; u1 at g=2..5; u0 at g=6. Epoch length 2
	// puts u0's second record in epoch 2, so auditing it must emit
	// u0's (identical) snapshots for boundaries 0 and 1 first.
	r1 := do0(0)
	a.NoteEpoch(1)
	do1(0) // g=2: closes epoch 0 for u1
	u1e0 := u1.SyncReport()
	do1(1)
	do1(2) // g=4: closes epoch 1 for u1
	u1e1 := u1.SyncReport()
	do1(3)       // g=5
	r2 := do0(1) // g=6
	a.NoteEpoch(6)

	if err := a.Submit(r1); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(r2); err != nil {
		t.Fatal(err)
	}
	a.Seal()

	// Feed u1's cut snapshots in as its (manual) epoch reports and seal.
	a.SubmitReport(Report{Epoch: 0, Report: u1e0})
	a.SubmitReport(Report{Epoch: 1, Report: u1e1})
	a.SubmitReport(Report{Seal: true, Report: u1.SyncReport()})

	if err := a.WaitSealed(10 * time.Second); err != nil {
		t.Fatalf("WaitSealed: %v", err)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("skipped-boundary run failed: %v", err)
	}
	if got := a.Completed(); got != 3 { // epochs 0,1,2 all closed
		t.Fatalf("Completed() = %d, want 3", got)
	}
}

// TestWaitAdmissibleGatesOneEpochAhead checks the pipelining bound:
// operations may run one epoch ahead of the audit, never two. Each
// input brings the client to the first op of epoch 1 with epoch 0
// still open and returns the step that closes epoch 0; it registers
// the auditor's Stop as a cleanup. "idle" gets
// there with nothing queued; "sustained pressure" holds the queue
// above half capacity for more than half a queue's worth of
// consecutive submits first, which must not widen the gate.
func TestWaitAdmissibleGatesOneEpochAhead(t *testing.T) {
	inputs := []struct {
		name  string
		setup func(t *testing.T) (a *Auditor, closeEpoch0 func())
	}{
		{"idle", gateIdle},
		{"sustained pressure", gateUnderPressure},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			a, closeEpoch0 := in.setup(t)
			if err := a.Err(); err != nil {
				t.Fatalf("setup: %v", err)
			}
			done := make(chan error, 1)
			go func() { done <- a.WaitAdmissible() }()
			select {
			case <-done:
				t.Fatal("WaitAdmissible admitted past an unclosed epoch")
			case <-time.After(50 * time.Millisecond):
			}
			closeEpoch0()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("WaitAdmissible after epoch closed: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("WaitAdmissible still blocked after epoch closed")
			}
			if err := a.WaitDrained(10 * time.Second); err != nil {
				t.Fatalf("WaitDrained: %v", err)
			}
		})
	}
}

// gateIdle notes epochs on an auditor that has nothing queued: an op
// in the open epoch 0 is admissible, then one lands in epoch 1.
func gateIdle(t *testing.T) (*Auditor, func()) {
	u := proto2.NewUser(1, vdb.New(0).Root(), 1<<20)
	var aud *Auditor
	a, err := New(Config{User: u, Epoch: 2, Users: 1, Publish: loopback(&aud)})
	if err != nil {
		t.Fatal(err)
	}
	aud = a
	t.Cleanup(a.Stop)
	a.NoteEpoch(2) // epoch 0: nothing closed yet, but still in-window — admissible
	done := make(chan error, 1)
	go func() { done <- a.WaitAdmissible() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitAdmissible inside open epoch: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitAdmissible blocked inside the open epoch")
	}
	a.NoteEpoch(3) // epoch 1: one past the unclosed epoch 0 — must block
	// Close epoch 0: the idle client's genesis snapshot is a valid cut.
	return a, func() { a.SubmitReport(Report{Epoch: 0, Report: u.SyncReport()}) }
}

// gateUnderPressure runs a full epoch 0 and the first op of epoch 1,
// stalls the worker in the publish of its epoch-0 report, and then
// submits epoch-1 records into the stalled queue until one blocks:
// occupancy stays above half capacity for queue/2+1 consecutive
// submits. Releasing the publish closes epoch 0.
func gateUnderPressure(t *testing.T) (*Auditor, func()) {
	const epoch, queue = 16, 8
	db := vdb.New(0)
	srv := proto2.NewServer(db)
	u := proto2.NewUser(1, db.Root(), 1<<20)
	release, stalled := make(chan struct{}), make(chan struct{})
	var aud *Auditor
	a, err := New(Config{
		User: u, Epoch: epoch, Users: 1, Queue: queue,
		Publish: func(r Report) error {
			if !r.Seal && r.Epoch == 0 {
				close(stalled)
				<-release
			}
			aud.SubmitReport(r)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	aud = a
	t.Cleanup(a.Stop)
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unstall) // runs before Stop, which waits for the worker
	submit := func(i int) error {
		op := put(fmt.Sprintf("k%d", i), "v")
		resp, err := srv.HandleOp(u.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		a.NoteEpoch(resp.Ctr + 1)
		return a.Submit(Record{Op: op, Resp: resp})
	}
	n := 0
	for ; n <= epoch; n++ { // epoch 0 and the op that crosses into epoch 1
		if err := submit(n); err != nil {
			t.Fatal(err)
		}
	}
	<-stalled
	for end := n + queue; n < end; n++ {
		if err := submit(n); err != nil {
			t.Fatal(err)
		}
	}
	overflow := make(chan error, 1)
	go func(i int) { overflow <- submit(i) }(n)
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Degraded == 0 {
		if time.Now().After(deadline) {
			t.Fatal("overflow submit never blocked on the full queue")
		}
		time.Sleep(time.Millisecond)
	}
	if st := a.Stats(); st.HighWater <= queue {
		t.Fatalf("queue high-water %d, want past capacity %d", st.HighWater, queue)
	}
	return a, func() {
		unstall()
		if err := <-overflow; err != nil {
			t.Errorf("overflow submit: %v", err)
		}
	}
}

// TestStopUnblocksWaiters: Stop must release admission waiters and
// blocked submitters with ErrClosed, not leave them hanging.
func TestStopUnblocksWaiters(t *testing.T) {
	u := proto2.NewUser(1, vdb.New(0).Root(), 1<<20)
	var aud *Auditor
	a, err := New(Config{User: u, Epoch: 2, Users: 1, Publish: loopback(&aud)})
	if err != nil {
		t.Fatal(err)
	}
	aud = a

	a.NoteEpoch(5) // two epochs ahead: admission blocks
	done := make(chan error, 1)
	go func() { done <- a.WaitAdmissible() }()
	time.Sleep(10 * time.Millisecond)
	a.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("WaitAdmissible after Stop: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop left WaitAdmissible hanging")
	}
	if err := a.Submit(Record{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Stop: %v, want ErrClosed", err)
	}
	a.Stop() // idempotent
}

// TestReportIdempotence: duplicate reports (hub replays after a
// reconnect) must not corrupt epoch assembly.
func TestReportIdempotence(t *testing.T) {
	u := proto2.NewUser(1, vdb.New(0).Root(), 1<<20)
	var aud *Auditor
	a, err := New(Config{User: u, Epoch: 2, Users: 2, Publish: loopback(&aud)})
	if err != nil {
		t.Fatal(err)
	}
	aud = a
	defer a.Stop()

	rep := func(id sig.UserID) core.SyncReportII {
		v := proto2.NewUser(id, vdb.New(0).Root(), 1<<20)
		return v.SyncReport()
	}
	a.SubmitReport(Report{Epoch: 0, Report: rep(1)})
	a.SubmitReport(Report{Epoch: 0, Report: rep(1)}) // duplicate: ignored
	if got := a.Completed(); got != 0 {
		t.Fatalf("duplicate report completed an epoch: Completed() = %d", got)
	}
	a.SubmitReport(Report{Epoch: 0, Report: rep(2)})
	if got := a.Completed(); got != 1 {
		t.Fatalf("Completed() = %d, want 1", got)
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsSafeWhileAuditing polls Stats from another goroutine while
// the worker verifies a chained epoch workload (run under -race: Stats
// used to read the replay-chain counters straight out of the user
// state machine the worker was mutating), then checks the published
// counters are exact once the queue has drained.
func TestStatsSafeWhileAuditing(t *testing.T) {
	db := vdb.New(0)
	srv := proto2.NewServer(db)
	u := proto2.NewUser(1, db.Root(), 1<<20)

	var aud *Auditor
	a, err := New(Config{User: u, Epoch: 8, Users: 1, Publish: loopback(&aud)})
	if err != nil {
		t.Fatal(err)
	}
	aud = a
	defer a.Stop()

	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				_ = a.Stats()
			}
		}
	}()
	const ops = 200
	for i := 0; i < ops; i++ {
		if err := a.WaitAdmissible(); err != nil {
			t.Fatalf("op %d: WaitAdmissible: %v", i, err)
		}
		op := put(fmt.Sprintf("k%d", i), "v")
		resp, err := srv.HandleOp(u.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Submit(Record{Op: op, Resp: resp}); err != nil {
			t.Fatalf("op %d: Submit: %v", i, err)
		}
		a.NoteEpoch(resp.Ctr + 1)
	}
	if err := a.WaitDrained(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-polled
	st := a.Stats()
	if st.Audited != ops || st.ChainHits+st.ChainMisses == 0 || st.ChainHits+st.ChainMisses > ops {
		t.Fatalf("drained stats: %+v", st)
	}
	hits, misses := u.ChainStats() // the worker is idle: safe to read directly
	if st.ChainHits != hits || st.ChainMisses != misses {
		t.Fatalf("published chain counters (%d, %d) lag the user's (%d, %d)", st.ChainHits, st.ChainMisses, hits, misses)
	}
}
