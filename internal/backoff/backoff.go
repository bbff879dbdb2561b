// Package backoff is the repo's one retry-pacing primitive: bounded
// exponential backoff with seeded, decorrelated jitter, plus fixed
// polling intervals, both cancelable. Every retry loop outside
// internal/fault must pace itself through this package — the tcvs-lint
// sleepretry pass bans bare time.Sleep loops precisely so that no
// future loop reinvents an unjittered schedule. The jitter matters
// operationally: clients that are restarted together (or that all lose
// the same server at the same instant) would otherwise share one
// deterministic backoff sequence and hit the recovering endpoint as a
// synchronized stampede, re-creating the overload that killed it.
package backoff

import (
	crand "crypto/rand"
	"encoding/binary"
	"sync"
	"time"
)

// Policy bounds one backoff schedule. The zero value is unusable; use
// the defaults noted per field via withDefaults (applied by New).
type Policy struct {
	// Min is the first delay (default 10ms).
	Min time.Duration
	// Max caps the exponential growth (default 2s).
	Max time.Duration
	// Jitter is the fraction of each delay that is randomized: the
	// returned delay is uniform in [d*(1-Jitter), d]. 0 selects the
	// default 0.5; negative disables jitter (deterministic schedules
	// for tests).
	Jitter float64
}

func (p Policy) withDefaults() Policy {
	if p.Min <= 0 {
		p.Min = 10 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if p.Max < p.Min {
		p.Max = p.Min
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Source is a concurrency-safe splitmix64 stream feeding jitter
// decisions. Deliberately not math/rand: the stream must be cheap,
// seedable for reproducible tests, and stable across Go releases.
type Source struct {
	mu sync.Mutex
	s  uint64
}

// NewSource returns a Source seeded from crypto/rand, so independently
// started processes draw decorrelated jitter.
func NewSource() *Source {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Entropy exhaustion is unrecoverable; fall back to a fixed
		// seed rather than panic — jitter is a liveness optimization,
		// not a security boundary.
		return NewSeededSource(0x9e3779b97f4a7c15)
	}
	return NewSeededSource(binary.BigEndian.Uint64(b[:]))
}

// NewSeededSource returns a deterministic Source for tests and
// recorded schedules.
func NewSeededSource(seed uint64) *Source { return &Source{s: seed} }

// Uint64 draws the next value.
func (s *Source) Uint64() uint64 {
	s.mu.Lock()
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	s.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Backoff produces one schedule of delays. Not safe for concurrent
// use; each retry loop owns its Backoff (the Source may be shared).
type Backoff struct {
	pol Policy
	src *Source
	cur time.Duration
}

// New builds a Backoff over pol. src may be nil, which disables jitter
// (equivalent to Jitter < 0).
func New(pol Policy, src *Source) *Backoff {
	return &Backoff{pol: pol.withDefaults(), src: src}
}

// Poll builds a fixed-interval schedule: every delay is exactly d.
// For wait-until-condition loops where exponential growth would only
// add latency.
func Poll(d time.Duration) *Backoff {
	return New(Policy{Min: d, Max: d, Jitter: -1}, nil)
}

// Next returns the next delay: the exponential base doubles from Min
// to Max, and jitter subtracts up to Jitter of it.
func (b *Backoff) Next() time.Duration {
	if b.cur == 0 {
		b.cur = b.pol.Min
	} else if b.cur < b.pol.Max {
		if b.cur *= 2; b.cur > b.pol.Max {
			b.cur = b.pol.Max
		}
	}
	d := b.cur
	if b.src != nil && b.pol.Jitter > 0 && d > 0 {
		span := time.Duration(float64(d) * b.pol.Jitter)
		if span > 0 {
			d -= time.Duration(b.src.Uint64() % uint64(span))
		}
	}
	return d
}

// Reset restarts the schedule from Min (call after a success).
func (b *Backoff) Reset() { b.cur = 0 }

// Sleep blocks for the next delay.
func (b *Backoff) Sleep() { time.Sleep(b.Next()) }

// SleepAtLeast blocks for the next delay, or for floor when that is
// longer — how a retry loop waits out a circuit breaker's cooldown
// without dropping its own jittered schedule.
func (b *Backoff) SleepAtLeast(floor time.Duration) { time.Sleep(max(b.Next(), floor)) }

// SleepCh blocks for the next delay or until done fires, reporting
// whether the full delay elapsed (false = canceled).
func (b *Backoff) SleepCh(done <-chan struct{}) bool {
	t := time.NewTimer(b.Next())
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}
