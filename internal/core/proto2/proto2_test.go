package proto2

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"trustedcvs/internal/core"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

type harness struct {
	t      *testing.T
	server *Server
	users  []*User
}

func newHarness(t *testing.T, n int, k uint64) *harness {
	t.Helper()
	db := vdb.New(0)
	srv := NewServer(db)
	users := make([]*User, n)
	for i := range users {
		users[i] = NewUser(sig.UserID(i), db.Root(), k)
	}
	return &harness{t: t, server: srv, users: users}
}

func (h *harness) do(u int, op vdb.Op) any {
	h.t.Helper()
	ans, err := h.doOn(h.server, u, op)
	if err != nil {
		h.t.Fatalf("user %d: %v", u, err)
	}
	return ans
}

func (h *harness) doOn(srv *Server, u int, op vdb.Op) (any, error) {
	resp, err := srv.HandleOp(h.users[u].Request(op))
	if err != nil {
		return nil, err
	}
	return h.users[u].HandleResponse(op, resp)
}

func (h *harness) sync() error {
	reports := make([]core.SyncReportII, len(h.users))
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
	if ra := ans.(vdb.ReadAnswer); !ra.Results[0].Found || string(ra.Results[0].Val) != "1" {
		t.Fatalf("read: %+v", ra)
	}
	if err := h.sync(); err != nil {
		t.Fatalf("sync on honest run: %v", err)
	}
}

func TestSyncWithIdleUsers(t *testing.T) {
	// Users who performed no operations still participate in sync with
	// zeroed σ and genesis last; the check must pass.
	h := newHarness(t, 5, 100)
	h.do(0, put("a", "1"))
	h.do(0, put("a", "2"))
	if err := h.sync(); err != nil {
		t.Fatalf("sync with idle users: %v", err)
	}
}

func TestSyncZeroOps(t *testing.T) {
	h := newHarness(t, 3, 100)
	if err := h.sync(); err != nil {
		t.Fatalf("sync with zero ops: %v", err)
	}
}

func TestRepeatedSyncsAccumulate(t *testing.T) {
	// σ accumulates across syncs (the check is global from genesis);
	// multiple rounds over a growing history must keep passing.
	h := newHarness(t, 3, 2)
	for round := 0; round < 6; round++ {
		for u := range h.users {
			h.do(u, put(fmt.Sprintf("k%d", u), fmt.Sprintf("r%d", round)))
		}
		if err := h.sync(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestCounterReplayDetected(t *testing.T) {
	h := newHarness(t, 2, 100)
	h.do(0, put("a", "1"))

	// Replay: serve user 0 from a snapshot taken before its op, so the
	// counter it sees is one it has already seen.
	fresh := NewServer(vdb.New(0))
	op := get("a")
	resp, err := fresh.HandleOp(h.users[0].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.users[0].HandleResponse(op, resp)
	de, ok := core.AsDetection(err)
	if !ok || de.Class != core.CounterReplay {
		t.Fatalf("want CounterReplay, got %v", err)
	}
}

func TestSameCounterTwiceToSameUserDetected(t *testing.T) {
	// The precise condition behind Lemma 4.1's P2: a user must never
	// see the same ctr twice.
	h := newHarness(t, 1, 100)
	snapshot := h.server.Fork()
	h.do(0, put("a", "1"))
	op := put("a", "other")
	resp, err := snapshot.HandleOp(h.users[0].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.users[0].HandleResponse(op, resp)
	if de, ok := core.AsDetection(err); !ok || de.Class != core.CounterReplay {
		t.Fatalf("want CounterReplay, got %v", err)
	}
}

func TestTamperedAnswerDetected(t *testing.T) {
	h := newHarness(t, 2, 100)
	h.do(0, put("a", "true"))
	op := get("a")
	resp, err := h.server.HandleOp(h.users[1].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	forged, _ := vdb.EncodeAnswer(vdb.ReadAnswer{Results: []vdb.ReadResult{{Key: "a", Found: true, Val: []byte("lie")}}})
	resp.Answer = forged
	_, err = h.users[1].HandleResponse(op, resp)
	if de, ok := core.AsDetection(err); !ok || de.Class != core.BadAnswer {
		t.Fatalf("want BadAnswer, got %v", err)
	}
}

// TestPartitionAttackDetectedAtSync mounts Figure 1 under Protocol II.
func TestPartitionAttackDetectedAtSync(t *testing.T) {
	h := newHarness(t, 4, 100)
	h.do(0, put("Common.h", "#define X 1"))
	h.do(2, get("Common.h"))

	branchB := h.server.Fork()
	// Group A = users 0,1 on the main server; group B = users 2,3 on
	// the fork.
	ops := []struct {
		srv *Server
		u   int
		op  vdb.Op
	}{
		{h.server, 0, put("a.c", "A")},
		{branchB, 2, put("b.c", "B")},
		{h.server, 1, get("a.c")},
		{branchB, 3, get("b.c")},
		{h.server, 0, put("a.c", "A2")},
		{branchB, 2, put("b.c", "B2")},
	}
	for i, o := range ops {
		if _, err := h.doOn(o.srv, o.u, o.op); err != nil {
			t.Fatalf("op %d: per-op verification must pass on a fork: %v", i, err)
		}
	}
	err := h.sync()
	if de, ok := core.AsDetection(err); !ok || de.Class != core.SyncMismatch {
		t.Fatalf("want SyncMismatch, got %v", err)
	}
}

// TestStaleReplayToOtherUserDetectedAtSync: replaying an old state to
// a *different* user passes the per-op counter check (their gctr is
// lower) but breaks the chain at sync.
func TestStaleReplayToOtherUserDetectedAtSync(t *testing.T) {
	h := newHarness(t, 2, 100)
	h.do(0, put("f", "v1"))
	stale := h.server.Fork()
	h.do(0, put("f", "v2"))

	if _, err := h.doOn(stale, 1, get("f")); err != nil {
		t.Fatalf("stale replay to fresh user must pass per-op checks: %v", err)
	}
	err := h.sync()
	if de, ok := core.AsDetection(err); !ok || de.Class != core.SyncMismatch {
		t.Fatalf("want SyncMismatch, got %v", err)
	}
}

// TestWrongLastUserDetectedAtSync: the server lies about which user
// performed the previous operation; the tagged states no longer chain.
func TestWrongLastUserDetectedAtSync(t *testing.T) {
	h := newHarness(t, 3, 100)
	h.do(0, put("a", "1"))
	op := put("b", "2")
	resp, err := h.server.HandleOp(h.users[1].Request(op))
	if err != nil {
		t.Fatal(err)
	}
	resp.Last = 2 // actually user 0
	if _, err := h.users[1].HandleResponse(op, resp); err != nil {
		t.Fatalf("lie about j passes per-op checks: %v", err)
	}
	err = h.sync()
	if de, ok := core.AsDetection(err); !ok || de.Class != core.SyncMismatch {
		t.Fatalf("want SyncMismatch, got %v", err)
	}
}

func TestConstantUserState(t *testing.T) {
	// Desideratum 5: the registers must not grow with history length.
	h := newHarness(t, 2, 1_000_000)
	for i := 0; i < 200; i++ {
		h.do(i%2, put(fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i)))
	}
	r := h.users[0].regs
	// Registers is a fixed-size struct; just confirm the counters moved
	// and the digests are live (i.e., the state is real, not growing).
	if r.Ops != 100 || r.Sigma.IsZero() {
		t.Fatalf("registers: %+v", r)
	}
}

// TestQuickHonestRunsAlwaysPass drives random honest schedules through
// the full protocol and checks that sync never false-positives.
func TestQuickHonestRunsAlwaysPass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		h := newHarness(t, n, 100)
		for i, ops := 0, rng.Intn(60); i < ops; i++ {
			u := rng.Intn(n)
			var op vdb.Op
			if rng.Intn(2) == 0 {
				op = put(fmt.Sprintf("k%d", rng.Intn(10)), fmt.Sprintf("v%d", i))
			} else {
				op = get(fmt.Sprintf("k%d", rng.Intn(10)))
			}
			if _, err := h.doOn(h.server, u, op); err != nil {
				t.Log(err)
				return false
			}
			if rng.Intn(10) == 0 {
				if err := h.sync(); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		return h.sync() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickForksAlwaysDetected drives random forked schedules and
// checks that sync always detects, provided both branches performed at
// least one post-fork operation.
func TestQuickForksAlwaysDetected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		h := newHarness(t, n, 1000)
		groupA := 1 + rng.Intn(n-1) // users [0,groupA) on A, rest on B
		// Common prefix.
		for i, ops := 0, rng.Intn(10); i < ops; i++ {
			if _, err := h.doOn(h.server, rng.Intn(n), put(fmt.Sprintf("k%d", i), "x")); err != nil {
				t.Log(err)
				return false
			}
		}
		branchB := h.server.Fork()
		// At least one op on each branch.
		for i, ops := 0, 1+rng.Intn(8); i < ops; i++ {
			if _, err := h.doOn(h.server, rng.Intn(groupA), put(fmt.Sprintf("a%d", i), "A")); err != nil {
				t.Log(err)
				return false
			}
		}
		for i, ops := 0, 1+rng.Intn(8); i < ops; i++ {
			if _, err := h.doOn(branchB, groupA+rng.Intn(n-groupA), put(fmt.Sprintf("b%d", i), "B")); err != nil {
				t.Log(err)
				return false
			}
		}
		err := h.sync()
		de, ok := core.AsDetection(err)
		return ok && de.Class == core.SyncMismatch
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewUserPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 must panic")
		}
	}()
	NewUser(0, digest.Empty(), 0)
}
