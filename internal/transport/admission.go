package transport

import (
	"fmt"
	"sync"
	"time"

	"trustedcvs/internal/wire"
)

// Priority classes for server admission control, highest first. Under
// overload the server sheds from the bottom of this ladder up: a
// background scrub is refused long before a user op, and user ops are
// the last class standing. The ordering encodes the trust argument,
// not just a latency preference — user ops and audit reports are what
// detection is *made of*, while gossip redials and scrubs both have
// retry loops that tolerate refusal.
type Priority int

const (
	// PriorityUser: interactive protocol operations (reads, writes,
	// syncs, content push/fetch on behalf of a user). Shed last.
	PriorityUser Priority = iota
	// PriorityAudit: audit-protocol traffic — epoch report fetches,
	// backup retrieval for verification.
	PriorityAudit
	// PriorityGossip: witness commitment fan-out and gossip. Witnesses
	// catch up from peers, so a refused delivery costs latency, not
	// evidence.
	PriorityGossip
	// PriorityBackground: scrubbing, prefetching, anything with no
	// caller waiting. Shed first.
	PriorityBackground

	// NumPriorities sizes per-class stats arrays.
	NumPriorities
)

func (p Priority) String() string {
	switch p {
	case PriorityUser:
		return "user"
	case PriorityAudit:
		return "audit"
	case PriorityGossip:
		return "gossip"
	case PriorityBackground:
		return "background"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// AdmissionOptions configures an Admission controller. The zero value
// selects the defaults noted on each field.
type AdmissionOptions struct {
	// Target is the per-request latency the adaptive limit steers
	// toward: while observed latency (EWMA) stays under Target the
	// concurrency limit creeps up additively; when it overshoots, the
	// limit backs off multiplicatively (AIMD). Default 25ms.
	Target time.Duration
	// MinLimit floors the adaptive concurrency limit so admission can
	// always make progress. Default 2.
	MinLimit int
	// MaxLimit caps the adaptive concurrency limit. Default 64.
	MaxLimit int
	// QueueDepth bounds the total number of waiters queued across all
	// priority classes; beyond it requests are shed, lowest priority
	// first. Default 128.
	QueueDepth int
}

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.Target <= 0 {
		o.Target = 25 * time.Millisecond
	}
	if o.MinLimit <= 0 {
		o.MinLimit = 2
	}
	if o.MaxLimit <= 0 {
		o.MaxLimit = 64
	}
	if o.MaxLimit < o.MinLimit {
		o.MaxLimit = o.MinLimit
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 128
	}
	return o
}

// AdmissionStats is a point-in-time snapshot of an Admission
// controller, exported by the -stats-addr debug endpoint.
type AdmissionStats struct {
	Limit     int // current adaptive concurrency limit
	Inflight  int // requests currently admitted and running
	Depth     int // waiters currently queued
	HighWater int // max queue depth ever observed
	Admitted  uint64
	// Shed counts ErrOverloaded refusals per class; Expired counts
	// requests whose propagated deadline lapsed before admission.
	Shed    [NumPriorities]uint64
	Expired [NumPriorities]uint64
	// LatencyEWMA is the smoothed observed handler latency the AIMD
	// loop compares against Target.
	LatencyEWMA time.Duration
}

// admWaiter is one parked Acquire call.
type admWaiter struct {
	ch       chan error // buffered 1: grant (nil) or refusal
	class    Priority
	deadline time.Time
}

// Admission is a bounded, priority-aware admission controller with an
// adaptive (AIMD) concurrency limit: the transport's answer to "queues
// grow without bound above capacity". Requests are admitted up to the
// current limit, queued (bounded, per-priority FIFO) while the server
// is busy, and shed with a typed wire.ErrOverloaded — lowest priority
// first — when the queue is full. Shedding happens before any protocol
// state is touched, so a shed op is atomically refused: never
// half-applied, never cached, never an audit obligation.
type Admission struct {
	mu       sync.Mutex
	opt      AdmissionOptions
	limit    float64
	inflight int
	// queues holds parked waiters per class, FIFO within a class.
	// Bounded by opt.QueueDepth across all classes (enforced in
	// Acquire; overflow sheds the lowest-priority waiter).
	queues [NumPriorities][]*admWaiter
	depth  int

	ewma    float64 // seconds
	nobs    int     // completions since the last limit adjustment
	samples int     // total completions (first sample seeds the EWMA)

	highWater uint64
	admitted  uint64
	shed      [NumPriorities]uint64
	expired   [NumPriorities]uint64
}

// adjustEvery is how many completed requests the AIMD loop waits
// between limit adjustments — long enough to see the effect of the
// last move, short enough to track a load swing within tens of
// requests.
const adjustEvery = 16

// ewmaAlpha is the smoothing factor for observed latency.
const ewmaAlpha = 0.2

// NewAdmission builds a controller; the initial limit starts at
// MaxLimit and adapts down under latency pressure (starting high means
// an idle server never queues its first burst).
func NewAdmission(opt AdmissionOptions) *Admission {
	opt = opt.withDefaults()
	return &Admission{opt: opt, limit: float64(opt.MaxLimit)}
}

// Acquire admits the calling request, parks it in the bounded priority
// queue, or refuses it with a typed error: wire.ErrOverloaded when the
// queue is full and this request is the lowest priority in sight (a
// higher-priority arrival instead evicts the newest lowest-priority
// waiter), wire.ErrDeadlineExceeded when deadline (zero = none) lapses
// before a slot frees up. A nil return means the caller must Release
// exactly once when its handler finishes.
func (a *Admission) Acquire(class Priority, deadline time.Time) error {
	if class < 0 || class >= NumPriorities {
		class = PriorityBackground
	}
	// The clock is read only for a deadline: the uncontended,
	// deadline-free path is a lock, two counters and an unlock.
	if !deadline.IsZero() && time.Now().After(deadline) {
		a.mu.Lock()
		a.expired[class]++
		a.mu.Unlock()
		return fmt.Errorf("transport: expired before admission%w", admErr{wire.ErrDeadlineExceeded})
	}
	a.mu.Lock()
	if a.inflight < a.limitLocked() {
		a.inflight++
		a.admitted++
		a.mu.Unlock()
		return nil
	}
	if a.depth >= a.opt.QueueDepth {
		// Queue full: shed the lowest-priority request in sight. If
		// the incoming class is at (or below) the lowest queued class,
		// the incoming request is the victim; otherwise evict the
		// newest waiter of the lowest class to make room.
		victim := a.lowestQueuedLocked()
		if victim <= class {
			a.shed[class]++
			a.mu.Unlock()
			return fmt.Errorf("transport: admission queue full (%s shed)%w", class, admErr{wire.ErrOverloaded})
		}
		q := a.queues[victim]
		w := q[len(q)-1]
		a.queues[victim] = q[:len(q)-1]
		a.depth--
		a.shed[victim]++
		w.ch <- fmt.Errorf("transport: admission queue full (%s evicted for %s)%w", victim, class, admErr{wire.ErrOverloaded})
	}
	w := &admWaiter{ch: make(chan error, 1), class: class, deadline: deadline}
	a.queues[class] = append(a.queues[class], w)
	a.depth++
	if uint64(a.depth) > a.highWater {
		a.highWater = uint64(a.depth)
	}
	a.mu.Unlock()

	if deadline.IsZero() {
		return <-w.ch
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case err := <-w.ch:
		return err
	case <-t.C:
		// Deadline lapsed while queued. Remove ourselves — unless a
		// grant raced the timer, in which case the grant wins and the
		// (already sent) outcome is on the channel.
		a.mu.Lock()
		if a.removeLocked(w) {
			a.expired[class]++
			a.mu.Unlock()
			return fmt.Errorf("transport: deadline lapsed in admission queue%w", admErr{wire.ErrDeadlineExceeded})
		}
		a.mu.Unlock()
		return <-w.ch
	}
}

// Release records one completed request's observed latency, runs the
// AIMD adjustment, and grants queued waiters freed capacity, highest
// priority first.
func (a *Admission) Release(observed time.Duration) {
	a.mu.Lock()
	a.inflight--
	s := observed.Seconds()
	if a.samples == 0 {
		a.ewma = s
	} else {
		a.ewma = (1-ewmaAlpha)*a.ewma + ewmaAlpha*s
	}
	a.samples++
	a.nobs++
	if a.nobs >= adjustEvery {
		a.nobs = 0
		if a.ewma > a.opt.Target.Seconds() {
			a.limit *= 0.85
			if a.limit < float64(a.opt.MinLimit) {
				a.limit = float64(a.opt.MinLimit)
			}
		} else {
			a.limit++
			if a.limit > float64(a.opt.MaxLimit) {
				a.limit = float64(a.opt.MaxLimit)
			}
		}
	}
	a.grantLocked()
	a.mu.Unlock()
}

// limitLocked is the integer concurrency limit in force.
func (a *Admission) limitLocked() int {
	l := int(a.limit)
	if l < a.opt.MinLimit {
		l = a.opt.MinLimit
	}
	return l
}

// grantLocked admits parked waiters while capacity remains, highest
// priority first, dropping waiters whose deadline lapsed in the queue.
func (a *Admission) grantLocked() {
	if a.depth == 0 {
		return
	}
	now := time.Now()
	for a.inflight < a.limitLocked() && a.depth > 0 {
		var w *admWaiter
		for c := Priority(0); c < NumPriorities; c++ {
			if len(a.queues[c]) > 0 {
				w = a.queues[c][0]
				a.queues[c] = a.queues[c][1:]
				break
			}
		}
		a.depth--
		if !w.deadline.IsZero() && now.After(w.deadline) {
			a.expired[w.class]++
			w.ch <- fmt.Errorf("transport: deadline lapsed in admission queue%w", admErr{wire.ErrDeadlineExceeded})
			continue
		}
		a.inflight++
		a.admitted++
		w.ch <- nil
	}
}

// lowestQueuedLocked returns the lowest-priority class with a queued
// waiter (PriorityUser if, impossibly, none are queued).
func (a *Admission) lowestQueuedLocked() Priority {
	for c := NumPriorities - 1; c >= 0; c-- {
		if len(a.queues[c]) > 0 {
			return c
		}
	}
	return PriorityUser
}

// removeLocked unlinks w from its class queue, reporting whether it
// was still queued.
func (a *Admission) removeLocked(w *admWaiter) bool {
	q := a.queues[w.class]
	for i, x := range q {
		if x == w {
			a.queues[w.class] = append(q[:i], q[i+1:]...)
			a.depth--
			return true
		}
	}
	return false
}

// Stats snapshots the controller.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		Limit:       a.limitLocked(),
		Inflight:    a.inflight,
		Depth:       a.depth,
		HighWater:   int(a.highWater),
		Admitted:    a.admitted,
		Shed:        a.shed,
		Expired:     a.expired,
		LatencyEWMA: time.Duration(a.ewma * float64(time.Second)),
	}
}

// admErr splices a typed refusal sentinel into a formatted error
// without altering its message text (mirrors wire's errMarker, but for
// errors originating server-side before any reply exists).
type admErr struct{ is error }

func (admErr) Error() string          { return "" }
func (m admErr) Is(target error) bool { return target == m.is }
