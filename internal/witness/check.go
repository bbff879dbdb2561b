package witness

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/vdb"
)

// ErrDiverged is wrapped by Check.Verify when the witness quorum's
// signed view of the server contradicts what this client verified
// through its own VOs — the server is showing different histories to
// different observers. Callers surface it as a WitnessDivergence
// detection; it is never retryable.
var ErrDiverged = errors.New("witness: quorum commitment diverges from locally verified root")

// ErrNoQuorum is wrapped by Check.Verify when too few witnesses
// answered to conclude anything. Unlike ErrDiverged it is an
// availability problem, not a detection: the caller should retry
// later, not raise an alarm — conflating the two is exactly the false
// positive E15 measures against.
var ErrNoQuorum = errors.New("witness: quorum not reachable")

// DefaultCheckWindow bounds how many recently verified (ctr, root)
// pairs a Check remembers for cross-checking. It must comfortably
// exceed the publisher's commit cadence or commitments fall between
// remembered heads and the check degrades to signature-only.
const DefaultCheckWindow = 1024

// Check is the client-side witness cross-check: it accumulates the
// heads this client verified through VOs (Observe) and compares them
// against the signed commitments the witness quorum holds (Verify).
// Safe for concurrent use by a driver's report goroutines.
type Check struct {
	server string
	pub    ed25519.PublicKey
	quorum int
	window int

	mu        sync.Mutex
	witnesses map[string]DialFunc
	roots     map[uint64]digest.Digest
	order     []uint64
}

// NewCheck creates a check against the named server, whose commitment
// public key the client knows out of band. quorum is how many
// witnesses must answer for Verify to conclude; 0 selects a simple
// majority of the registered witnesses.
func NewCheck(serverName string, pub ed25519.PublicKey, quorum int) *Check {
	return &Check{
		server:    serverName,
		pub:       append(ed25519.PublicKey(nil), pub...),
		quorum:    quorum,
		window:    DefaultCheckWindow,
		witnesses: make(map[string]DialFunc),
		roots:     make(map[uint64]digest.Digest),
	}
}

// CheckFor returns a client's cross-check against the commitments
// primary publishes to nodes, with a majority quorum. epochLen is the
// deployment's epoch length (0 = synchronous audit): the
// remembered-roots window grows to 4·epochLen when that exceeds
// DefaultCheckWindow. With commitments on the epoch grid and
// verification lagging up to one pipelined epoch behind, a window of
// one epoch can evict the boundary commitment's root before the check
// runs, silently degrading it to signature-only.
func CheckFor(primary *Identity, nodes []*Node, epochLen uint64) *Check {
	c := NewCheck(primary.Name(), primary.Public(), 0)
	if 4*epochLen > uint64(DefaultCheckWindow) {
		c.window = int(4 * epochLen)
	}
	for _, nd := range nodes {
		c.AddWitness(nd.Name(), nd.Dial())
	}
	return c
}

// AddWitness registers a witness endpoint to query.
func (c *Check) AddWitness(name string, dial DialFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.witnesses[name] = dial
}

// Observe records a head this client verified through a VO, as a
// protocol user hands it out (VerifiedRoot). Old heads are evicted
// once the window fills.
func (c *Check) Observe(h vdb.Head) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(h)
}

// ObserveBatch records a batch of verified heads under one lock
// hand-off — the epoch auditor's per-batch amortization of Observe.
func (c *Check) ObserveBatch(heads []vdb.Head) {
	if len(heads) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range heads {
		c.observeLocked(h)
	}
}

func (c *Check) observeLocked(h vdb.Head) {
	ctr, root := h.Ctr(), h.Root()
	if ctr == 0 {
		return
	}
	// Keep the first pair recorded per ctr: two VOs verifying different
	// roots for one global counter would already have tripped the
	// protocol's own register checks.
	if _, ok := c.roots[ctr]; ok {
		return
	}
	c.roots[ctr] = root
	c.order = append(c.order, ctr)
	for len(c.order) > c.window {
		delete(c.roots, c.order[0])
		c.order = c.order[1:]
	}
}

// Verify queries every registered witness and cross-checks. It
// returns nil when a quorum answered and nothing contradicted;
// ErrNoQuorum when too few answered; ErrDiverged when any validly
// signed commitment names a root this client verified differently at
// the same ctr, or when any witness presents a verifiable evidence
// bundle against the server.
func (c *Check) Verify() error {
	c.mu.Lock()
	witnesses := make(map[string]DialFunc, len(c.witnesses))
	for name, dial := range c.witnesses {
		witnesses[name] = dial
	}
	quorum := c.quorum
	c.mu.Unlock()
	if quorum <= 0 {
		quorum = len(witnesses)/2 + 1
	}

	answered := 0
	var dialErrs []error
	for name, dial := range witnesses {
		reply, err := c.queryOne(dial)
		if err != nil {
			dialErrs = append(dialErrs, fmt.Errorf("witness %s: %w", name, err))
			continue
		}
		answered++
		if err := c.checkReply(name, reply); err != nil {
			return err
		}
	}
	if answered < quorum {
		return fmt.Errorf("%w: %d of %d answered (need %d): %w",
			ErrNoQuorum, answered, len(witnesses), quorum, errors.Join(dialErrs...))
	}
	return nil
}

func (c *Check) queryOne(dial DialFunc) (*LatestReply, error) {
	caller, err := dial()
	if err != nil {
		return nil, err
	}
	defer caller.Close()
	resp, err := caller.Call(&LatestRequest{Server: c.server})
	if err != nil {
		return nil, err
	}
	reply, ok := resp.(*LatestReply)
	if !ok {
		return nil, fmt.Errorf("witness answered %T to latest request", resp)
	}
	return reply, nil
}

// checkReply evaluates one witness's answer. Anything the witness says
// is checked against the primary's signature before it is believed: a
// lying witness can fabricate neither commitments nor evidence, only
// withhold them.
func (c *Check) checkReply(name string, reply *LatestReply) error {
	for _, ev := range reply.Evidence {
		if ev == nil || ev.Server != c.server {
			continue
		}
		if !ed25519.PublicKey(ev.Pub).Equal(c.pub) {
			continue // evidence against some other key holder, not our server
		}
		if err := ev.Verify(); err != nil {
			continue // fabricated bundle; ignore the witness's claim
		}
		return fmt.Errorf("%w: witness %s holds signed fork evidence: %s", ErrDiverged, name, ev.String())
	}
	if reply.Commit == nil {
		return nil // nothing committed yet; fine early in a run
	}
	if err := reply.Commit.Verify(c.pub); err != nil {
		// A commitment that does not verify under the real key is noise a
		// lying witness injected; it proves nothing either way.
		return nil
	}
	c.mu.Lock()
	local, seen := c.roots[reply.Commit.Ctr]
	c.mu.Unlock()
	if seen && local != reply.Commit.Root {
		return fmt.Errorf("%w: server committed root %s to witness %s at ctr %d, but this client verified %s",
			ErrDiverged, reply.Commit.Root.Short(), name, reply.Commit.Ctr, local.Short())
	}
	return nil
}
