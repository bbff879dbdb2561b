package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

// TestStressConcurrentClients hammers every verified protocol with 16
// concurrent TCP clients (run it with -race: it is the pipelined hot
// path's concurrency regression test). Two properties must hold:
//
//  1. Every response verifies — each scheme client runs the full user
//     state machine and fails on any proof that does not check out,
//     so runFleet surfacing no error is the assertion.
//  2. The operation counters the server presented, pooled across all
//     clients, form a gap-free permutation: the ordered section
//     admitted each op exactly once, with no lost or duplicated slot,
//     no matter how decode/encode stages interleave around it.
func TestStressConcurrentClients(t *testing.T) {
	const (
		clients  = 16
		totalOps = 320
	)
	for _, s := range schemes() {
		t.Run(s.name, func(t *testing.T) {
			perClient, err := runFleet(s, 200, clients, totalOps)
			if err != nil {
				t.Fatal(err)
			}
			var ctrs []uint64
			for _, c := range perClient {
				ctrs = append(ctrs, c...)
			}
			if len(ctrs) != totalOps {
				t.Fatalf("collected %d ctrs, want %d", len(ctrs), totalOps)
			}
			sort.Slice(ctrs, func(i, j int) bool { return ctrs[i] < ctrs[j] })
			for i := 1; i < len(ctrs); i++ {
				if ctrs[i] != ctrs[i-1]+1 {
					t.Fatalf("ctr sequence broken at %d: %d then %d",
						i, ctrs[i-1], ctrs[i])
				}
			}
		})
	}
}

// The concurrency fleet TestStressConcurrentClients drives: real TCP
// clients, each a full protocol user state machine that verifies every
// response, issuing operations against one server concurrently.

// schemeClient performs one verified operation over a connection and
// reports the operation counter the server presented.
type schemeClient func(c transport.Caller, op vdb.Op) (ctr uint64, err error)

// scheme wires up one protocol: the server over a fresh preloaded
// database and a per-client user factory.
type scheme struct {
	name  string
	setup func(size, nClients int) (server.Server, func(id int) schemeClient)
}

// callII is the two-message exchange of every scheme but Protocol I:
// one request, one OpResponseII, checked by verify.
func callII(c transport.Caller, req *core.OpRequest, verify func(*core.OpResponseII) error) (uint64, error) {
	resp, err := c.Call(req)
	if err != nil {
		return 0, err
	}
	r, ok := resp.(*core.OpResponseII)
	if !ok {
		return 0, fmt.Errorf("bench: unexpected response %T", resp)
	}
	return r.Ctr, verify(r)
}

// --- Protocol I ---

func p1Do(u *proto1.User, c transport.Caller, op vdb.Op) (uint64, error) {
	req := u.Request(op)
	// Protocol I admits one operation globally between acks; competing
	// clients see ErrAckPending (as a wire error string) and retry
	// with a small backoff. This contention is the protocol's blocking
	// third message, not a harness artifact.
	bo := backoff.New(backoff.Policy{Min: 50 * time.Microsecond, Max: time.Millisecond, Jitter: -1}, nil)
	var resp any
	var err error
	for {
		resp, err = c.Call(req)
		if err == nil {
			break
		}
		if strings.Contains(err.Error(), "ack is still pending") {
			bo.Sleep()
			continue
		}
		return 0, err
	}
	r, ok := resp.(*core.OpResponseI)
	if !ok {
		return 0, fmt.Errorf("bench: unexpected response %T", resp)
	}
	ack, _, err := u.HandleResponse(op, r)
	if err != nil {
		return 0, err
	}
	if _, err := c.Call(ack); err != nil {
		return 0, err
	}
	return r.Ctr, nil
}

func p1Setup(size, nClients int) (server.Server, func(int) schemeClient) {
	db := seedDB(size)
	signers, ring, err := sig.DeterministicSigners(nClients, 13)
	if err != nil {
		panic(err)
	}
	return server.NewP1(db, proto1.Initialize(signers[0], db.Root())), func(id int) schemeClient {
		u := proto1.NewUser(signers[id], ring, 1<<62)
		return func(c transport.Caller, op vdb.Op) (uint64, error) { return p1Do(u, c, op) }
	}
}

// --- Protocol II ---

func p2Setup(size, _ int) (server.Server, func(int) schemeClient) {
	db := seedDB(size)
	root := db.Root()
	return server.NewP2(db), func(id int) schemeClient {
		u := proto2.NewUser(sig.UserID(id), root, 1<<62)
		return func(c transport.Caller, op vdb.Op) (uint64, error) {
			return callII(c, u.Request(op), func(r *core.OpResponseII) error {
				_, err := u.HandleResponse(op, r)
				return err
			})
		}
	}
}

// --- Protocol III ---

func p3Setup(size, nClients int) (server.Server, func(int) schemeClient) {
	db := seedDB(size)
	signers, ring, err := sig.DeterministicSigners(nClients, 17)
	if err != nil {
		panic(err)
	}
	root := db.Root()
	return server.NewP3(db), func(id int) schemeClient {
		u := proto3.NewUser(signers[id], ring, root)
		return func(c transport.Caller, op vdb.Op) (uint64, error) {
			return callII(c, u.Request(op), func(r *core.OpResponseII) error {
				// No epochs advance during the measurement, so the
				// outcome never carries checker duty.
				_, err := u.HandleResponse(op, r)
				return err
			})
		}
	}
}

func schemes() []scheme {
	return []scheme{
		{name: "P1", setup: p1Setup},
		{name: "P2", setup: p2Setup},
		{name: "P3", setup: p3Setup},
	}
}

// runFleet connects nClients protocol clients of scheme s to its
// server behind the production request router over TCP, has each issue
// totalOps/nClients operations closed loop, and returns per client
// every operation counter the server presented. Writes are spread so
// clients touch distinct keys most of the time, like independent CVS
// users would.
func runFleet(s scheme, size, nClients, totalOps int) ([][]uint64, error) {
	ps, newClient := s.setup(size, nClients)
	srv, err := transport.Listen("127.0.0.1:0", driver.NewHandler(ps, cvs.NewStore()))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	callers := make([]transport.Caller, nClients)
	clients := make([]schemeClient, nClients)
	for i := range callers {
		if callers[i], err = transport.Dial(srv.Addr()); err != nil {
			return nil, err
		}
		defer callers[i].Close()
		clients[i] = newClient(i)
	}
	ctrs := make([][]uint64, nClients)
	res := load{
		workers: nClients, ops: totalOps / nClients,
		op: func(a arrival) (bool, error) {
			ctr, err := clients[a.worker](callers[a.worker], benchOp(a.worker*100003+a.seq, size))
			if err != nil {
				return false, err
			}
			ctrs[a.worker] = append(ctrs[a.worker], ctr)
			return true, nil
		},
	}.run()
	return ctrs, res.err()
}
