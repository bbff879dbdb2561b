package witness

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

// DefaultCommitEvery is the commitment cadence (in database
// operations) when the caller passes 0.
const DefaultCommitEvery = 8

// Publisher is the primary server's side of witness replication: it
// chains and signs commitments over the database head and fans each
// one out to every registered witness. The signing section is a
// mutex-ordered few microseconds; the network fan-out is rate-limited
// per witness: one delivery worker per witness with a one-slot
// latest-wins mailbox, so however fast commitments arrive, a witness
// sees at most one in-flight delivery plus one queued — never a
// goroutine pile-up (the unbounded goroutine-per-commitment fan-out
// was the E20 scaling blocker). Skipped intermediates are safe by the
// same argument as a witness being down: it misses those commitments
// and catches up by gossip; only the freshest root matters for the
// quorum check.
type Publisher struct {
	id      *Identity
	every   uint64
	aligned bool

	mu     sync.Mutex
	seq    uint64
	prev   digest.Digest
	nextAt uint64 // commit when ctr reaches this
	lanes  map[string]*witnessLane

	wg sync.WaitGroup

	errMu     sync.Mutex
	lastErr   error
	delivered uint64
	coalesced uint64
}

// laneBreaker tunes every witness lane's circuit breaker: after five
// consecutive delivery failures a lane stops dialing for a jittered
// two-second cooldown, then lets one probe through, and a failed probe
// re-opens at once — a dead witness costs one timed-out dial per
// cooldown instead of one per commitment. Commitments skipped while
// open are ordinary coalesced misses: gossip catch-up covers them.
// Tests shorten the cooldown.
var laneBreaker = transport.BreakerPolicy{Threshold: 5, Cooldown: 2 * time.Second}

// witnessLane is one witness's delivery worker state: a single-slot
// latest-wins mailbox plus a delivery breaker.
type witnessLane struct {
	name string
	dial DialFunc
	src  *backoff.Source // the breaker's cooldown jitter

	mu      sync.Mutex
	pending *SubmitRequest // latest-wins; overwritten, never queued deeper
	busy    bool           // a drain worker is running
	brk     *transport.Breaker
}

// NewPublisher creates a publisher for the given identity. every is
// the commitment cadence in operations; 0 selects epochLen, or
// DefaultCommitEvery in a synchronous deployment (epochLen = 0). With
// epochLen > 0 the cadence is aligned: the commitment after the one
// covering ctr lands at the first head past ctr-ctr%every+every, so
// every epoch boundary has one at (or just past) it and the auditor's
// per-epoch quorum check compares against a root from its own window.
func NewPublisher(id *Identity, every, epochLen uint64) *Publisher {
	if every == 0 {
		every = epochLen
	}
	if every == 0 {
		every = DefaultCommitEvery
	}
	return &Publisher{
		id:      id,
		every:   every,
		aligned: epochLen > 0,
		nextAt:  every,
		lanes:   make(map[string]*witnessLane),
	}
}

// Identity returns the publisher's signing identity.
func (p *Publisher) Identity() *Identity { return p.id }

// AddWitness registers a witness endpoint.
func (p *Publisher) AddWitness(name string, dial DialFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lanes[name] = &witnessLane{name: name, dial: dial, src: backoff.NewSource(), brk: transport.NewBreaker(laneBreaker)}
}

// OpApplied is the server-side hook: call it with the database head
// after each applied operation. Heads must be consistent (vdb.DB.Head)
// but need not be strictly ordered across callers — a stale head is
// simply skipped by the cadence gate.
func (p *Publisher) OpApplied(ctr uint64, root digest.Digest) {
	p.mu.Lock()
	if ctr < p.nextAt {
		p.mu.Unlock()
		return
	}
	c := p.commitLocked(ctr, root)
	p.mu.Unlock()
	p.fanOut(c)
}

// CommitNow signs and publishes a commitment at the given head
// immediately, regardless of cadence — used at checkpoint boundaries
// and by tests. It does not wait for delivery; use Flush.
func (p *Publisher) CommitNow(ctr uint64, root digest.Digest) {
	p.mu.Lock()
	c := p.commitLocked(ctr, root)
	p.mu.Unlock()
	p.fanOut(c)
}

func (p *Publisher) commitLocked(ctr uint64, root digest.Digest) *SubmitRequest {
	p.seq++
	c := p.id.Commit(p.seq, ctr, root, p.prev)
	p.prev = root
	if p.aligned {
		// Next boundary strictly past ctr: commitments track the
		// epoch grid rather than drifting by the offset of whatever
		// head happened to trip the previous commit.
		p.nextAt = ctr - ctr%p.every + p.every
	} else {
		p.nextAt = ctr + p.every
	}
	return &SubmitRequest{Commit: c, Pub: append([]byte(nil), p.id.Public()...)}
}

// fanOut offers one commitment to every witness lane, best-effort,
// off the caller's goroutine. A busy lane coalesces: the new
// commitment replaces whatever was waiting (latest wins), so a slow
// witness receives the freshest root instead of a backlog. A witness
// that misses commitments catches up by gossip.
func (p *Publisher) fanOut(req *SubmitRequest) {
	for _, l := range p.snapshotLanes() {
		p.offer(l, req)
	}
}

// offer hands req to lane l: starts a drain worker if the lane is
// idle, otherwise drops it in the one-slot mailbox (displacing — and
// counting — any commitment already waiting there).
func (p *Publisher) offer(l *witnessLane, req *SubmitRequest) {
	l.mu.Lock()
	if l.busy {
		if l.pending != nil {
			p.noteCoalesced()
		}
		l.pending = req
		l.mu.Unlock()
		return
	}
	l.busy = true
	l.mu.Unlock()
	p.wg.Add(1)
	go p.drain(l, req)
}

// drain is a lane's delivery worker: deliver req, then whatever
// accumulated in the mailbox meanwhile, until the mailbox is empty.
// At most one drain per lane runs at a time, so a claimed probe is the
// lane's only delivery in flight.
func (p *Publisher) drain(l *witnessLane, req *SubmitRequest) {
	defer p.wg.Done()
	for {
		l.mu.Lock()
		send := l.brk.State() == transport.BreakerClosed
		if !send && l.brk.ProbeReady(time.Now()) {
			l.brk.ClaimProbe()
			send = true
		}
		l.mu.Unlock()
		if !send {
			// Lane breaker open: skip the dial entirely; the witness
			// catches up by gossip when it returns.
			p.noteCoalesced()
		} else if err := deliver(l.dial, req); err != nil {
			p.noteErr(fmt.Errorf("publish to %s: %w", l.name, err))
			l.mu.Lock()
			l.brk.Failure(time.Now(), l.src)
			l.mu.Unlock()
		} else {
			l.mu.Lock()
			l.brk.Success()
			l.mu.Unlock()
			p.noteDelivered()
		}
		l.mu.Lock()
		req, l.pending = l.pending, nil
		if req == nil {
			l.busy = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
	}
}

func deliver(dial DialFunc, req any) error {
	caller, err := dial()
	if err != nil {
		return err
	}
	defer caller.Close()
	_, err = caller.Call(req)
	return err
}

func (p *Publisher) noteErr(err error) {
	p.errMu.Lock()
	p.lastErr = err
	p.errMu.Unlock()
}

func (p *Publisher) noteDelivered() {
	p.errMu.Lock()
	p.delivered++
	p.errMu.Unlock()
}

func (p *Publisher) noteCoalesced() {
	p.errMu.Lock()
	p.coalesced++
	p.errMu.Unlock()
}

// FanoutStats reports the rate-limited fan-out's counters: delivered
// commitments, skipped ones (displaced by a fresher commitment in a
// busy lane, or suppressed while a lane breaker was open), and how
// many times a lane breaker opened.
func (p *Publisher) FanoutStats() (delivered, skipped, tripped uint64) {
	for _, l := range p.snapshotLanes() {
		l.mu.Lock()
		tripped += l.brk.Opens()
		l.mu.Unlock()
	}
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.delivered, p.coalesced, tripped
}

// LaneStates snapshots each witness lane's delivery-breaker state
// ("closed", "open" or "half-open", as transport.BreakerState names
// them), for the -stats-addr debug endpoint.
func (p *Publisher) LaneStates() map[string]string {
	lanes := p.snapshotLanes()
	m := make(map[string]string, len(lanes))
	for _, l := range lanes {
		l.mu.Lock()
		m[l.name] = l.brk.State().String()
		l.mu.Unlock()
	}
	return m
}

// snapshotLanes copies the lane set out from under p.mu.
func (p *Publisher) snapshotLanes() []*witnessLane {
	p.mu.Lock()
	defer p.mu.Unlock()
	lanes := make([]*witnessLane, 0, len(p.lanes))
	for _, l := range p.lanes {
		lanes = append(lanes, l)
	}
	return lanes
}

// LastErr returns the most recent delivery failure (nil when all
// deliveries so far succeeded). Purely informational: delivery is
// best-effort by design.
func (p *Publisher) LastErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.lastErr
}

// Flush waits for every in-flight delivery to finish. Call before
// asserting on witness state (tests) or before shutting down.
func (p *Publisher) Flush() { p.wg.Wait() }

// ShipSnapshot encodes a checkpoint and delivers it, with a fresh
// commitment over the same head, to every witness synchronously. The
// snapshot must be a consistent cut (server.CheckpointP2 with the
// session table); err aggregates per-witness failures, and the
// shipment counts as delivered if at least one witness accepted —
// the quorum read at promotion time tolerates stragglers.
func (p *Publisher) ShipSnapshot(snap *server.P2Snapshot) error {
	var buf bytes.Buffer
	if err := server.EncodeP2Snapshot(&buf, snap); err != nil {
		return err
	}
	// Re-derive the head from the snapshot itself rather than trusting a
	// caller-supplied pair: the publisher never commits to a head it did
	// not read out of the bytes being shipped.
	db, err := vdb.RestoreDB(snap.DB)
	if err != nil {
		return err
	}
	ctr, root := db.Head()
	p.CommitNow(ctr, root)
	put := &SnapshotPut{Server: p.id.Name(), Ctr: ctr, Root: root, Data: buf.Bytes()}

	p.mu.Lock()
	targets := make(map[string]DialFunc, len(p.lanes))
	for name, l := range p.lanes {
		targets[name] = l.dial
	}
	p.mu.Unlock()
	if len(targets) == 0 {
		return errors.New("witness: no witnesses registered to ship snapshot to")
	}
	var errs []error
	delivered := 0
	for name, dial := range targets {
		if err := deliver(dial, put); err != nil {
			errs = append(errs, fmt.Errorf("ship snapshot to %s: %w", name, err))
			continue
		}
		delivered++
	}
	if delivered == 0 {
		return errors.Join(errs...)
	}
	return nil
}
