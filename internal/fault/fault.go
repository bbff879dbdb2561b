// Package fault is the deterministic fault-injection layer used to
// prove the endpoints self-heal: benign infrastructure failures —
// connection resets, latency spikes, read/write stalls, mid-frame
// truncation, torn checkpoint writes, a crash between write and rename
// — must cause zero false deviation alarms, while genuine tampering
// injected through the very same faulty channel is still detected.
//
// The paper's model declares these failures out of scope (the
// broadcast channel is assumed reliable and in-order); a production
// deployment cannot. This package makes the out-of-scope failures a
// first-class, *reproducible* test input: every decision comes from a
// seeded splitmix64 PRNG and monotone I/O counters, or from an
// explicit script of (index, kind) events, so a failing schedule can
// be replayed exactly.
//
// Two faces:
//
//   - Conn wraps a net.Conn (WrapConn, or Dialer for each dialled
//     connection) and injects network faults per I/O operation (see
//     Config).
//   - FS (fs.go) wraps the checkpoint persistence path and injects
//     torn writes, short writes, and crash-before-rename.
//
// Injection hooks are slow by design (they sleep, sever, and count);
// the repo's lockscope lint pass bans them inside mutex critical
// sections exactly like the other blocking calls.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind is one category of injected network fault.
type Kind int

const (
	// None performs the I/O untouched.
	None Kind = iota
	// Latency delays the I/O by Config.Latency, then performs it.
	Latency
	// Stall delays the I/O by Config.Stall — long enough to trip a
	// peer's deadline, which is the point.
	Stall
	// Reset severs the connection before the I/O (RST-like: the peer
	// sees an abrupt error, not a clean EOF).
	Reset
	// Truncate writes a strict prefix of the buffer, then severs —
	// a mid-frame truncation as seen after a crashed peer or a
	// middlebox cut. On reads it degrades to Reset.
	Truncate
	// Spike delays the I/O by a seeded duration drawn from
	// [Config.SpikeMin, Config.SpikeMax] — the gray-failure latency
	// profile: the connection never dies, it just intermittently gets
	// much worse. Unlike Latency (fixed delay), no two spikes need be
	// alike, which is what defeats naive timeout tuning.
	Spike
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Latency:
		return "latency"
	case Stall:
		return "stall"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	case Spike:
		return "spike"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is the base error for injected connection faults, so
// callers can distinguish scheduled harness faults from real ones in
// test assertions.
var ErrInjected = errors.New("fault: injected")

// Event is one scripted fault: fire Kind at the At-th I/O operation
// (1-based, counted across every connection sharing the Injector).
type Event struct {
	At   uint64
	Kind Kind
}

// Config parameterizes an Injector. Probabilities are per I/O
// operation and evaluated by the seeded PRNG, so a (Seed, Config) pair
// fully determines the fault decision sequence. Script entries fire at
// exact I/O indices and take precedence over probabilities.
type Config struct {
	// Seed feeds the splitmix64 decision stream.
	Seed uint64
	// After suppresses probabilistic faults for the first After I/O
	// operations (connection establishment, handshakes). Scripted
	// events ignore it.
	After uint64

	ResetProb    float64
	TruncateProb float64
	LatencyProb  float64
	StallProb    float64

	// Latency is the delay injected by Latency faults.
	Latency time.Duration
	// Stall is the delay injected by Stall faults.
	Stall time.Duration

	// Gray failure: a slow-but-alive connection. SpikeProb injects,
	// per I/O, a latency spike of seeded duration drawn uniformly from
	// [SpikeMin, SpikeMax]; BytesPerSec throttles the wrapped Conn's
	// effective bandwidth (0 = unthrottled). Neither ever severs the
	// connection — a gray endpoint passes every liveness check while
	// degrading everything that flows through it, which is the failure
	// mode circuit breakers exist for.
	SpikeProb float64
	SpikeMin  time.Duration
	SpikeMax  time.Duration
	// BytesPerSec paces each direction of a wrapped Conn: every I/O of
	// n bytes costs n/BytesPerSec of sleep on that endpoint. Wrap one
	// side only, or the halves compound.
	BytesPerSec int

	// Script fires exact (index, kind) events; indices are 1-based
	// over the injector's shared I/O counter.
	Script []Event
}

// Decision is the injector's verdict for one I/O operation.
type Decision struct {
	Kind  Kind
	Delay time.Duration
}

// Injector produces the deterministic fault decision sequence. One
// Injector is typically shared by every connection of a test or
// experiment, so "the 100th I/O of the run resets" means the same
// thing across runs regardless of which connection performs it.
type Injector struct {
	cfg Config

	mu     sync.Mutex
	rng    uint64
	n      uint64 // I/O operations observed
	counts map[Kind]uint64
}

// NewInjector builds an injector for cfg.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: cfg.Seed, counts: make(map[Kind]uint64)}
}

// Next advances the shared I/O counter and returns the decision for
// this operation. It is the injection hook: it must never be called
// inside a mutex critical section (enforced by the lockscope lint
// pass).
func (i *Injector) Next() Decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.n++
	d := i.decideLocked()
	if d.Kind != None {
		i.counts[d.Kind]++
	}
	return d
}

func (i *Injector) decideLocked() Decision {
	for _, e := range i.cfg.Script {
		if e.At == i.n {
			return i.decision(e.Kind)
		}
	}
	if i.n <= i.cfg.After {
		return Decision{}
	}
	// One draw per category keeps the stream stable when probabilities
	// change between experiments.
	switch {
	case i.chance(i.cfg.ResetProb):
		return i.decision(Reset)
	case i.chance(i.cfg.TruncateProb):
		return i.decision(Truncate)
	case i.chance(i.cfg.StallProb):
		return i.decision(Stall)
	case i.chance(i.cfg.LatencyProb):
		return i.decision(Latency)
	case i.chance(i.cfg.SpikeProb):
		return i.decision(Spike)
	}
	return Decision{}
}

func (i *Injector) decision(k Kind) Decision {
	switch k {
	case Latency:
		return Decision{Kind: Latency, Delay: i.cfg.Latency}
	case Stall:
		return Decision{Kind: Stall, Delay: i.cfg.Stall}
	case Spike:
		d := i.cfg.SpikeMin
		if span := i.cfg.SpikeMax - i.cfg.SpikeMin; span > 0 {
			d += time.Duration(i.rand() % uint64(span+1))
		}
		return Decision{Kind: Spike, Delay: d}
	default:
		return Decision{Kind: k}
	}
}

// throttleDelay converts n transferred bytes into the pacing sleep the
// bandwidth throttle demands (zero when unthrottled).
func (i *Injector) throttleDelay(n int) time.Duration {
	if i.cfg.BytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(n) * time.Second / time.Duration(i.cfg.BytesPerSec)
}

// rand is splitmix64: tiny, seedable, and plenty for fault schedules.
// Deliberately not math/rand — the decision stream must be stable
// across Go releases for recorded schedules to replay.
func (i *Injector) rand() uint64 {
	i.rng += 0x9e3779b97f4a7c15
	z := i.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (i *Injector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(i.rand()>>11)/(1<<53) < p
}

// Injected returns the total number of injected faults.
func (i *Injector) Injected() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	var t uint64
	for _, v := range i.counts {
		t += v
	}
	return t
}
