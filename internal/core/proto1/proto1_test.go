package proto1

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"trustedcvs/internal/core"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// harness wires n users to one honest Protocol I server, in process.
type harness struct {
	t      *testing.T
	server *Server
	users  []*User
}

func newHarness(t *testing.T, n int, k uint64) *harness {
	t.Helper()
	signers, ring, err := sig.DeterministicSigners(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := vdb.New(0)
	srv := NewServer(db, Initialize(signers[0], db.Root()))
	users := make([]*User, n)
	for i := range users {
		users[i] = NewUser(signers[i], ring, k)
	}
	return &harness{t: t, server: srv, users: users}
}

// do runs one full verified operation by user u, returning the decoded
// answer (fails the test on any error).
func (h *harness) do(u int, op vdb.Op) any {
	h.t.Helper()
	ans, err := h.tryDo(u, op)
	if err != nil {
		h.t.Fatalf("user %d op: %v", u, err)
	}
	return ans
}

func (h *harness) tryDo(u int, op vdb.Op) (any, error) {
	user := h.users[u]
	resp, err := h.server.HandleOp(user.Request(op))
	if err != nil {
		return nil, err
	}
	ack, ans, err := user.HandleResponse(op, resp)
	if err != nil {
		return nil, err
	}
	if err := h.server.HandleAck(ack); err != nil {
		return nil, err
	}
	return ans, nil
}

// sync runs a full synchronization round; every user evaluates.
func (h *harness) sync() error {
	reports := make([]core.SyncReportI, len(h.users))
	for i, u := range h.users {
		reports[i] = u.SyncReport()
	}
	for _, u := range h.users {
		if err := u.CompleteSync(reports); err != nil {
			return err
		}
	}
	return nil
}

func put(k, v string) vdb.Op { return &vdb.WriteOp{Puts: []vdb.KV{{Key: k, Val: []byte(v)}}} }
func get(k string) vdb.Op    { return &vdb.ReadOp{Keys: []string{k}} }

func TestHonestRun(t *testing.T) {
	h := newHarness(t, 3, 4)
	h.do(0, put("a", "1"))
	h.do(1, put("b", "2"))
	ans := h.do(2, get("a"))
	ra := ans.(vdb.ReadAnswer)
	if !ra.Results[0].Found || string(ra.Results[0].Val) != "1" {
		t.Fatalf("read: %+v", ra)
	}
	if err := h.sync(); err != nil {
		t.Fatalf("sync on honest run: %v", err)
	}
}

func TestHonestManyOpsManySyncs(t *testing.T) {
	h := newHarness(t, 4, 3)
	for round := 0; round < 5; round++ {
		for u := range h.users {
			for j := 0; j < 3; j++ {
				h.do(u, put(fmt.Sprintf("k%d", j), fmt.Sprintf("r%d-u%d", round, u)))
				if h.users[u].NeedsSync() {
					if err := h.sync(); err != nil {
						t.Fatalf("sync: %v", err)
					}
				}
			}
		}
	}
}

func TestNeedsSyncTrigger(t *testing.T) {
	h := newHarness(t, 2, 3)
	for i := 0; i < 2; i++ {
		h.do(0, put("x", "v"))
		if h.users[0].NeedsSync() {
			t.Fatalf("sync wanted after only %d ops", i+1)
		}
	}
	h.do(0, put("x", "v"))
	if !h.users[0].NeedsSync() {
		t.Fatal("sync not wanted after k ops")
	}
	if err := h.sync(); err != nil {
		t.Fatal(err)
	}
	if h.users[0].NeedsSync() {
		t.Fatal("sync flag not cleared")
	}
}

func TestAckFlowEnforced(t *testing.T) {
	h := newHarness(t, 2, 10)
	op := put("a", "1")
	resp, err := h.server.HandleOp(h.users[0].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	// Second op before ack must be refused by the honest server.
	if _, err := h.server.HandleOp(h.users[1].Request(op)); !errors.Is(err, ErrAckPending) {
		t.Fatalf("want ErrAckPending, got %v", err)
	}
	ack, _, err := h.users[0].HandleResponse(op, resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.server.HandleAck(ack); err != nil {
		t.Fatal(err)
	}
	// Ack with nothing due must be refused.
	if err := h.server.HandleAck(ack); !errors.Is(err, ErrNoAckDue) {
		t.Fatalf("want ErrNoAckDue, got %v", err)
	}
}

func TestDetectsTamperedAnswer(t *testing.T) {
	h := newHarness(t, 2, 10)
	h.do(0, put("a", "true"))
	op := get("a")
	resp, err := h.server.HandleOp(h.users[1].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := vdb.EncodeAnswer(vdb.ReadAnswer{Results: []vdb.ReadResult{{Key: "a", Found: true, Val: []byte("lie")}}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Answer = forged
	_, _, err = h.users[1].HandleResponse(op, resp)
	de, ok := core.AsDetection(err)
	if !ok || de.Class != core.BadAnswer {
		t.Fatalf("want BadAnswer detection, got %v", err)
	}
}

func TestDetectsForgedSignature(t *testing.T) {
	h := newHarness(t, 2, 10)
	op := put("a", "1")
	resp, err := h.server.HandleOp(h.users[0].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	resp.Sig = append(sig.Signature(nil), resp.Sig...)
	resp.Sig[0] ^= 0xFF
	_, _, err = h.users[0].HandleResponse(op, resp)
	de, ok := core.AsDetection(err)
	if !ok || de.Class != core.BadSignature {
		t.Fatalf("want BadSignature detection, got %v", err)
	}
}

func TestDetectsWrongSigner(t *testing.T) {
	h := newHarness(t, 3, 10)
	op := put("a", "1")
	resp, err := h.server.HandleOp(h.users[0].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	resp.Signer = 2 // server lies about who signed
	_, _, err = h.users[0].HandleResponse(op, resp)
	de, ok := core.AsDetection(err)
	if !ok || de.Class != core.BadSignature {
		t.Fatalf("want BadSignature detection, got %v", err)
	}
}

func TestMissingVO(t *testing.T) {
	h := newHarness(t, 1, 10)
	op := put("a", "1")
	resp, err := h.server.HandleOp(h.users[0].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	resp.VO = nil
	_, _, err = h.users[0].HandleResponse(op, resp)
	de, ok := core.AsDetection(err)
	if !ok || de.Class != core.ProtocolViolation {
		t.Fatalf("want ProtocolViolation, got %v", err)
	}
}

// TestPartitionAttackDetectedAtSync mounts the Figure 1 fork: users
// {0} and {1} are served from diverged copies. Per-operation
// verification passes on both branches (that is the point of the
// attack); the synchronization check catches it.
func TestPartitionAttackDetectedAtSync(t *testing.T) {
	h := newHarness(t, 2, 100)
	h.do(0, put("Common.h", "#define X 1"))
	h.do(1, get("Common.h"))

	// Server forks: user 0 continues on branch A, user 1 on branch B.
	branchB := h.server.Fork()

	doOn := func(srv *Server, u int, op vdb.Op) {
		t.Helper()
		user := h.users[u]
		resp, err := srv.HandleOp(user.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		ack, _, err := user.HandleResponse(op, resp)
		if err != nil {
			t.Fatalf("per-op verification must pass on a fork (that is the attack): %v", err)
		}
		if err := srv.HandleAck(ack); err != nil {
			t.Fatal(err)
		}
	}
	doOn(h.server, 0, put("a.c", "branch A"))
	doOn(branchB, 1, put("b.c", "branch B"))
	doOn(h.server, 0, put("a2.c", "more A"))
	doOn(branchB, 1, put("b2.c", "more B"))

	err := h.sync()
	de, ok := core.AsDetection(err)
	if !ok || de.Class != core.SyncMismatch {
		t.Fatalf("want SyncMismatch detection, got %v", err)
	}
}

// TestStaleStateReplayDetectedAtSync: the server completes a user's
// update, then serves the next user from the pre-update state (a
// replay of an old signed root, Section 4.2's partition observation).
func TestStaleStateReplayDetectedAtSync(t *testing.T) {
	h := newHarness(t, 2, 100)
	h.do(0, put("f", "v1"))
	stale := h.server.Fork() // snapshot before v2

	h.do(0, put("f", "v2"))

	// User 1 is now served from the stale snapshot; its per-op check
	// passes because the old signed state is legitimate.
	op := get("f")
	resp, err := stale.HandleOp(h.users[1].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	ack, ans, err := h.users[1].HandleResponse(op, resp)
	if err != nil {
		t.Fatalf("replay must pass per-op verification: %v", err)
	}
	if err := stale.HandleAck(ack); err != nil {
		t.Fatal(err)
	}
	if ra := ans.(vdb.ReadAnswer); string(ra.Results[0].Val) != "v1" {
		t.Fatalf("stale read should see v1, got %q", ra.Results[0].Val)
	}

	err = h.sync()
	if de, ok := core.AsDetection(err); !ok || de.Class != core.SyncMismatch {
		t.Fatalf("want SyncMismatch detection, got %v", err)
	}
}

func TestInitializeSignsInitialState(t *testing.T) {
	signers, ring, err := sig.DeterministicSigners(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := vdb.New(0)
	init := Initialize(signers[0], db.Root())
	if err := ring.Verify(init.Signer, core.StateHash(db.Root(), 0), init.Sig); err != nil {
		t.Fatalf("init signature invalid: %v", err)
	}
}

// TestAckSignatureOutlivesItsFrame: the server presents the last ack's
// signature with the next operation, after the ack's request frame is
// gone — a connection decodes every request into one buffer it reuses.
// Two ops and acks cross one TCP connection's Serve loop, and the
// second response's signature, the user's own from the first ack, must
// verify.
func TestAckSignatureOutlivesItsFrame(t *testing.T) {
	h := newHarness(t, 1, 100)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan error, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		served <- wire.Serve(c, func(req any, _ time.Duration, reply func(any, error) error) error {
			switch r := req.(type) {
			case *core.OpRequest:
				return reply(h.server.HandleOp(r))
			case *core.AckRequest:
				return reply(&core.OKResponse{}, h.server.HandleAck(r))
			}
			return reply(nil, fmt.Errorf("unexpected %T", req))
		})
	}()
	nc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	user := h.users[0]
	for i := 0; i < 2; i++ {
		op := put("k", fmt.Sprint(i))
		resp, err := conn.Call(user.Request(op))
		if err != nil {
			t.Fatal(err)
		}
		ack, _, err := user.HandleResponse(op, resp.(*core.OpResponseI))
		if err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
		if _, err := conn.Call(ack); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
