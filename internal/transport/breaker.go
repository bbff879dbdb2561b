package transport

import (
	"time"

	"trustedcvs/internal/backoff"
)

// BreakerPolicy configures a circuit breaker: one per ResilientClient
// (RetryPolicy.Breaker) and one per witness publisher lane.
// The zero value selects the defaults noted per field.
type BreakerPolicy struct {
	// Threshold is how many consecutive failures (dial errors, dropped
	// connections, overload sheds) open the breaker (default 4).
	Threshold int
	// Cooldown is how long an open breaker holds traffic off the
	// endpoint before allowing one half-open probe. Each cooldown is
	// jittered ±50% from the owner's seeded source so a fleet of
	// callers that opened together does not probe in lockstep
	// (default 500ms).
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold <= 0 {
		p.Threshold = 4
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 500 * time.Millisecond
	}
	return p
}

// BreakerState is the classic three-state circuit breaker state.
type BreakerState int

const (
	// BreakerClosed: traffic flows, failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the endpoint is skipped until the (jittered)
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: exactly one probe call is in flight; its
	// outcome closes or re-opens the breaker. Every other caller
	// still treats the endpoint as unavailable — this is what bounds
	// probe storms when many callers race the same recovery.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is one endpoint's circuit breaker. It has no lock of its
// own: the owner (a ResilientClient, a witness lane) serializes every
// call under its mutex.
type Breaker struct {
	pol     BreakerPolicy
	state   BreakerState
	fails   int
	probeAt time.Time // earliest instant a half-open probe may launch
	probing bool      // a probe call is in flight
	opens   uint64
}

// NewBreaker returns a closed breaker under pol (zero fields take the
// defaults).
func NewBreaker(pol BreakerPolicy) *Breaker {
	return &Breaker{pol: pol.withDefaults()}
}

// State reports the breaker's current state.
func (b *Breaker) State() BreakerState { return b.state }

// Opens counts the transitions into the open state, re-opens after a
// failed probe included.
func (b *Breaker) Opens() uint64 { return b.opens }

// ProbeAt is the earliest instant an open breaker lets a probe launch.
func (b *Breaker) ProbeAt() time.Time { return b.probeAt }

// ProbeReady reports whether the breaker is open with an elapsed
// cooldown — i.e. a half-open probe could be claimed. No side effects:
// the slot is taken only by ClaimProbe, when the probe is sent.
func (b *Breaker) ProbeReady(now time.Time) bool {
	return b.state == BreakerOpen && !now.Before(b.probeAt)
}

// ClaimProbe transitions open → half-open and claims the single probe
// slot. The caller must route exactly one call to the endpoint and
// report its outcome via Success or Failure.
func (b *Breaker) ClaimProbe() {
	b.state = BreakerHalfOpen
	b.probing = true
}

// Success records a delivered response: the breaker closes and the
// failure streak resets.
func (b *Breaker) Success() {
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
}

// Failure records one failure, opening the breaker when the streak
// reaches the threshold (immediately, for a failed half-open probe)
// with a cooldown jittered from src.
func (b *Breaker) Failure(now time.Time, src *backoff.Source) {
	b.fails++
	wasProbe := b.state == BreakerHalfOpen
	b.probing = false
	if wasProbe || b.fails >= b.pol.Threshold {
		if b.state != BreakerOpen {
			b.opens++
		}
		b.state = BreakerOpen
		// Jitter the cooldown into [0.5c, 1.5c).
		c := b.pol.Cooldown
		j := time.Duration(src.Uint64() % uint64(c))
		b.probeAt = now.Add(c/2 + j)
	}
}
