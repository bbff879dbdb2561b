package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trustedcvs/internal/wire"
)

// waitDepth polls until the admission queue holds exactly n waiters.
func waitDepth(t *testing.T, adm *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for adm.Stats().Depth != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, want %d", adm.Stats().Depth, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedOrder pins the shedding ladder on a full queue: a
// higher-priority arrival evicts the newest lowest-priority waiter
// (typed wire.ErrOverloaded), an arrival at the bottom class self-sheds
// immediately, and freed capacity grants waiters highest-class first
// regardless of queue age.
func TestAdmissionShedOrder(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{MinLimit: 1, MaxLimit: 1, QueueDepth: 2})
	if err := adm.Acquire(PriorityUser, time.Time{}); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Two background waiters fill the queue.
	bg := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { bg <- adm.Acquire(PriorityBackground, time.Time{}) }()
	}
	waitDepth(t, adm, 2)
	// A user arrival on the full queue evicts the newest background
	// waiter and parks in its place.
	userCh := make(chan error, 1)
	go func() { userCh <- adm.Acquire(PriorityUser, time.Time{}) }()
	evicted := <-bg
	if !errors.Is(evicted, wire.ErrOverloaded) {
		t.Fatalf("evicted waiter got %v, want typed wire.ErrOverloaded", evicted)
	}
	waitDepth(t, adm, 2)
	// A background arrival on the full queue is the lowest priority in
	// sight: it self-sheds without displacing anyone.
	if err := adm.Acquire(PriorityBackground, time.Time{}); !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("background on full queue got %v, want typed wire.ErrOverloaded", err)
	} else if errors.Is(err, wire.ErrDeadlineExceeded) {
		t.Fatalf("shed mistyped as deadline: %v", err)
	}
	// Freed capacity goes to the parked user before the older
	// background waiter.
	adm.Release(time.Millisecond)
	if err := <-userCh; err != nil {
		t.Fatalf("user waiter not granted first: %v", err)
	}
	if st := adm.Stats(); st.Depth != 1 {
		t.Fatalf("depth after user grant = %d, want the background waiter alone", st.Depth)
	}
	adm.Release(time.Millisecond)
	if err := <-bg; err != nil {
		t.Fatalf("background waiter finally granted: %v", err)
	}
	adm.Release(time.Millisecond)
	st := adm.Stats()
	if st.Inflight != 0 || st.Depth != 0 {
		t.Fatalf("inflight/depth = %d/%d after full drain, want 0/0", st.Inflight, st.Depth)
	}
	if st.Shed[PriorityBackground] != 2 || st.Shed[PriorityUser] != 0 {
		t.Fatalf("shed = %v, want exactly 2 background refusals", st.Shed)
	}
	if st.Admitted != 3 {
		t.Fatalf("admitted = %d, want 3", st.Admitted)
	}
}

// TestAdmissionOverloadDeadline pins the deadline interactions: a
// request whose propagated deadline lapsed before arrival is refused
// with typed wire.ErrDeadlineExceeded (never counted as a shed), and a
// waiter whose deadline lapses while parked leaves the queue with the
// same typed refusal.
func TestAdmissionOverloadDeadline(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{MinLimit: 1, MaxLimit: 1, QueueDepth: 4})
	err := adm.Acquire(PriorityUser, time.Now().Add(-time.Second))
	if !errors.Is(err, wire.ErrDeadlineExceeded) || errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("pre-expired acquire got %v, want typed wire.ErrDeadlineExceeded", err)
	}
	if err := adm.Acquire(PriorityUser, time.Time{}); err != nil {
		t.Fatalf("fill slot: %v", err)
	}
	start := time.Now()
	err = adm.Acquire(PriorityAudit, time.Now().Add(30*time.Millisecond))
	if !errors.Is(err, wire.ErrDeadlineExceeded) {
		t.Fatalf("parked waiter got %v, want typed wire.ErrDeadlineExceeded", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("waiter refused after %v, before its deadline", waited)
	}
	st := adm.Stats()
	if st.Expired[PriorityUser] != 1 || st.Expired[PriorityAudit] != 1 {
		t.Fatalf("expired = %v, want one user + one audit", st.Expired)
	}
	if st.Depth != 0 {
		t.Fatalf("expired waiter still queued (depth %d)", st.Depth)
	}
	// The slot is intact: release and re-acquire.
	adm.Release(time.Millisecond)
	if err := adm.Acquire(PriorityUser, time.Time{}); err != nil {
		t.Fatalf("re-acquire after expiry bookkeeping: %v", err)
	}
	adm.Release(time.Millisecond)
}

// TestAdmissionOverloadAIMD pins the adaptive limit: sustained latency
// above Target backs the limit off multiplicatively; latency back
// under Target regrows it additively to MaxLimit.
func TestAdmissionOverloadAIMD(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{Target: 10 * time.Millisecond, MinLimit: 2, MaxLimit: 8, QueueDepth: 4})
	if got := adm.Stats().Limit; got != 8 {
		t.Fatalf("initial limit = %d, want MaxLimit 8", got)
	}
	turn := func(observed time.Duration, n int) {
		for i := 0; i < n; i++ {
			if err := adm.Acquire(PriorityUser, time.Time{}); err != nil {
				t.Fatalf("acquire: %v", err)
			}
			adm.Release(observed)
		}
	}
	turn(100*time.Millisecond, 2*adjustEvery)
	if got := adm.Stats().Limit; got >= 8 {
		t.Fatalf("limit = %d after sustained overshoot, want backed off below 8", got)
	}
	turn(time.Millisecond, 8*adjustEvery)
	if got := adm.Stats().Limit; got != 8 {
		t.Fatalf("limit = %d after sustained headroom, want regrown to 8", got)
	}
	// The floor holds no matter how bad latency gets.
	turn(time.Second, 30*adjustEvery)
	if got := adm.Stats().Limit; got != 2 {
		t.Fatalf("limit = %d under hopeless latency, want MinLimit 2", got)
	}
}

// TestAdmissionShedStress storms the controller from 64 goroutines
// across every class with mixed deadlines (run under -race by CI) and
// then audits the books: no slot leaks, no waiter leaks, and every
// request accounted for as admitted, shed, or expired.
func TestAdmissionShedStress(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{Target: time.Millisecond, MinLimit: 2, MaxLimit: 4, QueueDepth: 8})
	const (
		workers = 64
		perW    = 50
	)
	var granted atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				class := Priority(j % int(NumPriorities))
				var deadline time.Time
				if j%3 == 0 {
					deadline = time.Now().Add(time.Duration(j%5) * time.Millisecond)
				}
				if err := adm.Acquire(class, deadline); err != nil {
					if !errors.Is(err, wire.ErrOverloaded) && !errors.Is(err, wire.ErrDeadlineExceeded) {
						t.Errorf("untyped refusal: %v", err)
					}
					continue
				}
				granted.Add(1)
				time.Sleep(time.Duration(j%3) * 100 * time.Microsecond)
				adm.Release(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	st := adm.Stats()
	if st.Inflight != 0 || st.Depth != 0 {
		t.Fatalf("leaked state after storm: inflight %d, depth %d", st.Inflight, st.Depth)
	}
	var refused uint64
	for c := Priority(0); c < NumPriorities; c++ {
		refused += st.Shed[c] + st.Expired[c]
	}
	if st.Admitted != granted.Load() {
		t.Fatalf("admitted %d but callers saw %d grants", st.Admitted, granted.Load())
	}
	if st.Admitted+refused != workers*perW {
		t.Fatalf("books do not balance: %d admitted + %d refused != %d requests",
			st.Admitted, refused, workers*perW)
	}
}

// TestAdmissionUncontendedAllocs pins the governor every server runs
// under: an uncontended Acquire + Release allocates nothing, with or
// without a propagated deadline.
func TestAdmissionUncontendedAllocs(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{})
	for name, deadline := range map[string]time.Time{
		"no deadline": {},
		"deadline":    time.Now().Add(time.Hour),
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			if err := adm.Acquire(PriorityUser, deadline); err != nil {
				t.Fatal(err)
			}
			adm.Release(time.Microsecond)
		})
		if allocs != 0 {
			t.Errorf("%s: uncontended Acquire + Release allocates %.1f times, want 0", name, allocs)
		}
	}
}

// BenchmarkAdmissionUncontended is the governor's per-request cost on
// the path every unqueued request takes, timed as the server times it:
// Acquire with no deadline, the handler's latency sample, and a
// Release that finds no waiter.
func BenchmarkAdmissionUncontended(b *testing.B) {
	adm := NewAdmission(AdmissionOptions{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := adm.Acquire(PriorityUser, time.Time{}); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		adm.Release(time.Since(start))
	}
}
