package driver

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/core/proto3"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
)

// countingCaller counts the requests a client sends, by type.
type countingCaller struct {
	transport.Caller
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingCaller) Call(req any) (any, error) {
	c.mu.Lock()
	if c.calls == nil {
		c.calls = make(map[string]int)
	}
	c.calls[fmt.Sprintf("%T", req)]++
	c.mu.Unlock()
	return c.Caller.Call(req)
}

// take returns the calls since the last take, as "type×n" terms.
func (c *countingCaller) take() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var terms []string
	for _, typ := range []string{"*core.OpRequest", "*core.RiderRequest", "*core.AckRequest", "*core.PushContentRequest", "*core.FetchContentRequest"} {
		if n := c.calls[typ]; n > 0 {
			terms = append(terms, fmt.Sprintf("%s×%d", strings.TrimPrefix(typ, "*core."), n))
		}
	}
	c.calls = nil
	return strings.Join(terms, " ")
}

// riderRig is one honest server, its store, and a verified CVS client
// for user 0 of two over an in-process transport whose calls are
// counted. mode is "p1", "p2", "p3" or "epoch"; wrap, when non-nil,
// stands between the transport and the handler (a hostile server).
type riderRig struct {
	store *cvs.Store
	conn  *countingCaller
	dc    *Client
	repo  *cvs.Client
}

func newRiderRig(t *testing.T, mode string, wrap func(transport.Handler) transport.Handler) *riderRig {
	t.Helper()
	db := vdb.New(0)
	signers, ring, err := sig.DeterministicSigners(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var hs server.Server
	switch mode {
	case "p1":
		hs = server.NewP1(db, proto1.Initialize(signers[0], db.Root()))
	case "p3":
		hs = server.NewP3(db)
	default:
		hs = server.NewP2(db)
	}
	rig := &riderRig{store: cvs.NewStore()}
	handler := NewHandler(hs, rig.store)
	if wrap != nil {
		handler = wrap(handler)
	}
	rig.conn = &countingCaller{Caller: transport.NewInproc(handler)}
	hub := broadcast.NewHub()
	switch mode {
	case "p1":
		rig.dc = NewP1(proto1.NewUser(signers[0], ring, 1<<62), rig.conn, hub.Join(), 2)
	case "p2":
		rig.dc = NewP2(proto2.NewUser(0, db.Root(), 1<<62), rig.conn, hub.Join(), 2)
	case "p3":
		rig.dc = NewP3(proto3.NewUser(signers[0], ring, db.Root()), rig.conn)
	case "epoch":
		if rig.dc, err = NewP2EpochWAL(proto2.NewUser(0, db.Root(), 1<<62), rig.conn, hub.Join(), 1, 64, 0, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	rig.repo = cvs.NewClient(rig.dc, rig.dc, "user0", func() time.Time { return time.Unix(1144065600, 0) })
	t.Cleanup(func() {
		rig.dc.Close()
		hub.Close()
	})
	return rig
}

// TestRiderOneCallPerOperation: under every protocol and in epoch-audit
// mode a commit and a checkout are one server call each (Protocol I
// adds its ack), one file or three, and the content comes back intact.
func TestRiderOneCallPerOperation(t *testing.T) {
	for _, mode := range []string{"p1", "p2", "p3", "epoch"} {
		t.Run(mode, func(t *testing.T) {
			rig := newRiderRig(t, mode, nil)
			one := "RiderRequest×1"
			if mode == "p1" {
				one += " AckRequest×1"
			}
			if _, err := rig.repo.Commit(map[string][]byte{"f": []byte("one\n")}, "", nil); err != nil {
				t.Fatal(err)
			}
			if got := rig.conn.take(); got != one {
				t.Fatalf("single-file commit sent %q, want %q", got, one)
			}
			files := map[string][]byte{"a": []byte("alpha\n"), "b": []byte("bravo\n"), "c": []byte("charlie\n")}
			if _, err := rig.repo.Commit(files, "", nil); err != nil {
				t.Fatal(err)
			}
			if got := rig.conn.take(); got != one {
				t.Fatalf("three-file commit sent %q, want %q", got, one)
			}
			got, err := rig.repo.Checkout("f")
			if err != nil || string(got["f"]) != "one\n" {
				t.Fatalf("checkout: %q %v", got["f"], err)
			}
			if sent := rig.conn.take(); sent != one {
				t.Fatalf("single-file checkout sent %q, want %q", sent, one)
			}
			got, err = rig.repo.Checkout("a", "b", "c")
			if err != nil {
				t.Fatal(err)
			}
			for p, want := range files {
				if !bytes.Equal(got[p], want) {
					t.Fatalf("%s = %q", p, got[p])
				}
			}
			if sent := rig.conn.take(); sent != one {
				t.Fatalf("three-file checkout sent %q, want %q", sent, one)
			}
			// An operation with no content to move is the plain frame it
			// always was.
			if _, err := rig.repo.Status("f"); err != nil {
				t.Fatal(err)
			}
			plain := strings.Replace(one, "RiderRequest", "OpRequest", 1)
			if sent := rig.conn.take(); sent != plain {
				t.Fatalf("status sent %q, want %q", sent, plain)
			}
			if err := rig.dc.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLiveRiderTamperDetected: a server that attaches wrong bytes to a
// verified checkout answer is convicted by the content check — the
// answer verified, the rider did not, and there is no quiet retry.
func TestLiveRiderTamperDetected(t *testing.T) {
	var tamper atomic.Bool
	rig := newRiderRig(t, "p2", func(h transport.Handler) transport.Handler {
		return func(req any) (any, error) {
			resp, err := h(req)
			if rr, ok := resp.(*core.RiderResponse); ok && tamper.Load() {
				for i := range rr.Blobs {
					rr.Blobs[i] = []byte("evil\n")
				}
			}
			return resp, err
		}
	})
	if _, err := rig.repo.Commit(map[string][]byte{"f": []byte("genuine\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	rig.conn.take()
	tamper.Store(true)
	got, err := rig.repo.Checkout("f")
	if !errors.Is(err, cvs.ErrContentTampered) || got != nil {
		t.Fatalf("tampered rider: %q, %v; want cvs.ErrContentTampered", got, err)
	}
	if sent := rig.conn.take(); sent != "RiderRequest×1" {
		t.Fatalf("a wrong rider was followed by more traffic: %q", sent)
	}
	// The protocol answer was genuine: this is a content conviction,
	// not a protocol detection, exactly as for a tampered Fetch.
	if err := rig.dc.Err(); err != nil {
		t.Fatalf("protocol state failed over a content rider: %v", err)
	}
}

// TestLiveFetchTamperDetected: a server that strips the riders and then
// serves wrong bytes to the Fetch the checkout falls back on is
// convicted exactly as for a tampered rider — Fetch hands the bytes up
// unchecked and the checkout's one content check refuses them as
// cvs.ErrContentTampered.
func TestLiveFetchTamperDetected(t *testing.T) {
	var tamper atomic.Bool
	rig := newRiderRig(t, "p2", func(h transport.Handler) transport.Handler {
		return func(req any) (any, error) {
			resp, err := h(req)
			if !tamper.Load() {
				return resp, err
			}
			switch r := resp.(type) {
			case *core.RiderResponse:
				r.Blobs = nil
			case *core.ContentResponse:
				r.Content = []byte("evil\n") // a new slice: the store's blob is untouched
			}
			return resp, err
		}
	})
	if _, err := rig.repo.Commit(map[string][]byte{"f": []byte("genuine\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	rig.conn.take()
	tamper.Store(true)
	got, err := rig.repo.Checkout("f")
	if !errors.Is(err, cvs.ErrContentTampered) || got != nil {
		t.Fatalf("tampered fetch: %q, %v; want cvs.ErrContentTampered", got, err)
	}
	if sent := rig.conn.take(); sent != "RiderRequest×1 FetchContentRequest×1" {
		t.Fatalf("traffic %q, want one rider request and one fetch", sent)
	}
	if err := rig.dc.Err(); err != nil {
		t.Fatalf("protocol state failed over fetched content: %v", err)
	}
}

// TestDetectionRefusesPushAndFetch: once a client has convicted its
// server — in the operation itself, or through the epoch auditor —
// Push and Fetch refuse with the recorded detection, without
// allocating, and the server sees no further request.
func TestDetectionRefusesPushAndFetch(t *testing.T) {
	for _, mode := range []string{"p2", "epoch"} {
		t.Run(mode, func(t *testing.T) {
			db := vdb.New(0)
			hs := adversary.Wrap(server.NewP2(db), adversary.Config{Kind: adversary.TamperAnswer, TriggerOp: 2})
			conn := &countingCaller{Caller: transport.NewInproc(NewHandler(hs, cvs.NewStore()))}
			hub := broadcast.NewHub()
			defer hub.Close()
			user := proto2.NewUser(0, db.Root(), 1<<62)
			var c *Client
			if mode == "p2" {
				c = NewP2(user, conn, hub.Join(), 1)
			} else {
				var err error
				if c, err = NewP2EpochWAL(user, conn, hub.Join(), 1, 64, 0, "", nil); err != nil {
					t.Fatal(err)
				}
			}
			defer c.Close()
			for i := 0; i < 2; i++ {
				c.Do(put(fmt.Sprintf("k%d", i), "v")) //nolint:errcheck // the second answer is tampered
			}
			c.WaitIdle(10 * time.Second) //nolint:errcheck // the detection is read back below
			detected := c.Err()
			if _, ok := core.AsDetection(detected); !ok {
				t.Fatalf("no detection recorded: %v", detected)
			}
			conn.take()
			content := []byte("content\n")
			if err := c.Push("f", 1, content); !errors.Is(err, detected) {
				t.Fatalf("Push after detection: %v, want %v", err, detected)
			}
			if got, err := c.Fetch("f", 1, digest.Zero); got != nil || !errors.Is(err, detected) {
				t.Fatalf("Fetch after detection: %q, %v, want %v", got, err, detected)
			}
			if n := testing.AllocsPerRun(100, func() { _ = c.Push("f", 1, content) }); n != 0 {
				t.Fatalf("a refused Push allocates %v times", n)
			}
			if sent := conn.take(); sent != "" {
				t.Fatalf("a convicted server still received %s", sent)
			}
		})
	}
}

// TestLiveRiderAbsentCostsAFetch: a server that answers a RiderRequest
// with riders stripped, or with the bare protocol response, costs the
// client a Fetch and nothing else.
func TestLiveRiderAbsentCostsAFetch(t *testing.T) {
	var mode atomic.Int32 // 1: empty riders, 2: bare response
	rig := newRiderRig(t, "p2", func(h transport.Handler) transport.Handler {
		return func(req any) (any, error) {
			resp, err := h(req)
			if rr, ok := resp.(*core.RiderResponse); ok {
				switch mode.Load() {
				case 1:
					rr.Blobs = nil
				case 2:
					return rr.Resp, err
				}
			}
			return resp, err
		}
	})
	if _, err := rig.repo.Commit(map[string][]byte{"f": []byte("genuine\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	rig.conn.take()
	for m := int32(1); m <= 2; m++ {
		mode.Store(m)
		got, err := rig.repo.Checkout("f")
		if err != nil || string(got["f"]) != "genuine\n" {
			t.Fatalf("mode %d: checkout without riders: %q %v", m, got["f"], err)
		}
		if sent := rig.conn.take(); sent != "RiderRequest×1 FetchContentRequest×1" {
			t.Fatalf("mode %d: sent %q", m, sent)
		}
	}
}

// TestRiderPushFiledUnderStoreHash: the store never takes a hash from
// the request. Carried bytes that do not hash to what the commit
// authenticated are filed under what they do hash to, so the
// authenticated hash stays unserved — a failed checkout, never wrong
// content.
func TestRiderPushFiledUnderStoreHash(t *testing.T) {
	rig := newRiderRig(t, "p2", nil)
	claimed, carried := []byte("claimed\n"), []byte("carried\n")
	op := &cvs.CommitOp{Files: []cvs.CommitFile{{Path: "f", Hash: rcs.HashContent(claimed)}}, Author: "mallory"}
	if _, _, err := rig.dc.DoWithContent(op, [][]byte{carried}, false); err != nil {
		t.Fatal(err)
	}
	if got, err := rig.store.Fetch("f", 1, rcs.HashContent(carried)); err != nil || string(got) != "carried\n" {
		t.Fatalf("carried bytes not under their own hash: %q %v", got, err)
	}
	if _, err := rig.store.Fetch("f", 1, rcs.HashContent(claimed)); err == nil {
		t.Fatal("the store filed a blob under a hash it was told")
	}
	if _, err := rig.repo.Checkout("f"); err == nil {
		t.Fatal("checkout of a revision whose content was never uploaded succeeded")
	}
}

// TestRiderConflictLeavesOnlyAnOrphan: content is stored before the
// commit applies, so a commit that then conflicts leaves its blob in
// the store — referenced by no record.
func TestRiderConflictLeavesOnlyAnOrphan(t *testing.T) {
	rig := newRiderRig(t, "p2", nil)
	if _, err := rig.repo.Commit(map[string][]byte{"f": []byte("v1\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.repo.Commit(map[string][]byte{"f": []byte("v2\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	stale := []byte("based on v1\n")
	res, err := rig.repo.Commit(map[string][]byte{"f": stale}, "", map[string]uint64{"f": 1})
	if !errors.Is(err, cvs.ErrConflict) || len(res) != 1 || !res[0].Conflict {
		t.Fatalf("stale commit: %+v %v", res, err)
	}
	if got, err := rig.store.Fetch("f", 0, rcs.HashContent(stale)); err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("the conflicting commit's blob is not in the store: %q %v", got, err)
	}
	got, err := rig.repo.Checkout("f")
	if err != nil || string(got["f"]) != "v2\n" {
		t.Fatalf("head after the conflict: %q %v", got["f"], err)
	}
}

// TestRiderOverflowFallsBack: above cvs.MaxRiderBytes a commit carries
// nothing and pushes its content ahead of the operation, and a
// checkout's riders stop at the cap with the rest fetched; everything
// verifies. Ahead means: when the commit applies the store already
// holds every blob it names — what a reader racing it would fetch —
// and a commit whose push is refused is never issued.
func TestRiderOverflowFallsBack(t *testing.T) {
	var rig *riderRig
	var refuse error     // refuse pushes with this, when set
	var missing []string // blobs a commit named that the store did not hold when it applied
	rig = newRiderRig(t, "p2", func(inner transport.Handler) transport.Handler {
		return func(req any) (any, error) {
			if _, ok := req.(*core.PushContentRequest); ok && refuse != nil {
				return nil, refuse
			}
			resp, err := inner(req)
			if r, ok := req.(*core.OpRequest); ok && err == nil {
				if op, ok := r.Op.(*cvs.CommitOp); ok {
					for _, f := range op.Files {
						if _, ferr := rig.store.Fetch(f.Path, 0, f.Hash); ferr != nil {
							missing = append(missing, ferr.Error())
						}
					}
				}
			}
			return resp, err
		}
	})
	half := bytes.Repeat([]byte("0123456789abcdef"), cvs.MaxRiderBytes/16/2-64)
	files := map[string][]byte{"a": half, "b": append([]byte("b"), half...), "c": append([]byte("c"), half...)}
	if _, err := rig.repo.Commit(files, "", nil); err != nil {
		t.Fatal(err)
	}
	if sent := rig.conn.take(); sent != "OpRequest×1 PushContentRequest×3" {
		t.Fatalf("overflowing commit sent %q", sent)
	}
	if len(missing) > 0 {
		t.Fatalf("the commit applied before its content was stored: %q", missing)
	}
	got, err := rig.repo.Checkout("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range files {
		if !bytes.Equal(got[p], want) {
			t.Fatalf("%s: %d bytes back, want %d", p, len(got[p]), len(want))
		}
	}
	if sent := rig.conn.take(); sent != "RiderRequest×1 FetchContentRequest×1" {
		t.Fatalf("overflowing checkout sent %q, want two riders and one fetch", sent)
	}

	refuse = errors.New("injected: push refused")
	next := map[string][]byte{"a": append([]byte("2"), files["a"]...), "b": append([]byte("2"), files["b"]...), "c": files["c"]}
	if _, err := rig.repo.Commit(next, "", nil); !errors.Is(err, refuse) {
		t.Fatalf("commit over a refused push: %v, want the injected error", err)
	}
	if sent := rig.conn.take(); sent != "PushContentRequest×1" {
		t.Fatalf("commit over a refused push sent %q, want the one refused push and no operation", sent)
	}
	if got, err := rig.repo.Checkout("a"); err != nil || !bytes.Equal(got["a"], files["a"]) {
		t.Fatalf("head after the unissued commit: %d bytes, %v; want the previous revision", len(got["a"]), err)
	}
}

// TestCommitCheckoutRaceNeverSeesMissingContent is ROADMAP E25's bug
// (2) as a regression test: eight users commit and check out the same
// files flat out, and because a commit's content is in the store
// before the commit applies, no checkout ever finds a head revision
// whose blob is missing.
func TestCommitCheckoutRaceNeverSeesMissingContent(t *testing.T) {
	cl := newCluster(t, server.P2, 8, 16, nil)
	paths := []string{"a.c", "b.c", "c.c"}
	for _, p := range paths {
		if _, err := cl.cvs[0].Commit(map[string][]byte{p: []byte("seed\n")}, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, len(cl.cvs))
	var checkouts atomic.Int64
	for u := range cl.cvs {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				p := paths[(u+i)%len(paths)]
				if i%3 == 0 {
					if _, err := cl.cvs[u].Commit(map[string][]byte{p: []byte(fmt.Sprintf("user %d edit %d\n", u, i))}, "", nil); err != nil {
						errs <- fmt.Errorf("user %d commit %d: %w", u, i, err)
						return
					}
					continue
				}
				if _, err := cl.cvs[u].Checkout(p); err != nil {
					errs <- fmt.Errorf("user %d checkout %d: %w", u, i, err)
					return
				}
				checkouts.Add(1)
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := cl.waitAllIdle(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d checkouts raced the commits", checkouts.Load())
}

// cutConn loses whatever arrives while *cut is set: the response to a
// request the server has already handled.
type cutConn struct {
	net.Conn
	cut *atomic.Bool
}

func (c *cutConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.cut.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("test: connection cut with the response in flight")
	}
	return n, err
}

// TestRiderRetryReplaysCachedResponse: a resilient client that loses
// the response to a carried commit retries the same session sequence
// and is answered from the session table — the commit applies once and
// the cached RiderResponse comes back whole.
func TestRiderRetryReplaysCachedResponse(t *testing.T) {
	db := vdb.New(0)
	store := cvs.NewStore()
	var handled atomic.Int32
	var cut atomic.Bool
	inner := NewHandler(server.NewP2(db), store)
	ts, err := transport.ListenOpts("127.0.0.1:0", func(req any) (any, error) {
		resp, err := inner(req)
		if _, ok := req.(*core.RiderRequest); ok && handled.Add(1) == 1 {
			cut.Store(true) // set before the response is written
		}
		return resp, err
	}, transport.Options{Sessions: transport.NewSessionTable()})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	rc := transport.DialResilientFunc(func() (net.Conn, error) {
		nc, err := net.Dial("tcp", ts.Addr())
		if err != nil {
			return nil, err
		}
		return &cutConn{Conn: nc, cut: &cut}, nil
	}, transport.RetryPolicy{CallTimeout: 2 * time.Second, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	hub := broadcast.NewHub()
	defer hub.Close()
	dc := NewP2(proto2.NewUser(0, db.Root(), 1<<62), rc, hub.Join(), 1)
	defer dc.Close()
	repo := cvs.NewClient(dc, dc, "user0", nil)
	if _, err := repo.Commit(map[string][]byte{"f": []byte("once\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	if rc.Reconnects() == 0 {
		t.Fatal("the commit's response was never cut; the test proved nothing")
	}
	got, err := repo.Checkout("f")
	if err != nil || string(got["f"]) != "once\n" {
		t.Fatalf("checkout after the retried commit: %q %v", got["f"], err)
	}
	if n := handled.Load(); n != 2 || db.Ctr() != 2 {
		t.Fatalf("handler saw %d rider requests and applied %d operations for one commit and one checkout", n, db.Ctr())
	}
	if st, err := repo.Status("f"); err != nil || st[0].Rev != 1 {
		t.Fatalf("the retried commit created a second revision: %+v %v", st, err)
	}
}

// TestShedRiderStagesNothing: admission runs in front of the handler,
// so a carried commit that is refused leaves no blob behind; and the
// envelope is classed as the user operation it is.
func TestShedRiderStagesNothing(t *testing.T) {
	if got := Classify(&core.RiderRequest{}); got != transport.PriorityUser {
		t.Fatalf("Classify(RiderRequest) = %v, want PriorityUser", got)
	}
	db := vdb.New(0)
	store := cvs.NewStore()
	inner := NewHandler(server.NewP2(db), store)
	release := make(chan struct{})
	ts, err := transport.ListenOpts("127.0.0.1:0", func(req any) (any, error) {
		if _, ok := req.(*core.SyncRequest); ok {
			<-release
			return &core.OKResponse{}, nil
		}
		return inner(req)
	}, transport.Options{
		IdleTimeout: -1,
		Admission:   transport.AdmissionOptions{MinLimit: 1, MaxLimit: 1, QueueDepth: 1},
		Classify:    Classify,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	blocker, err := transport.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	bdone := make(chan struct{})
	go func() {
		defer close(bdone)
		blocker.Call(&core.SyncRequest{From: 99})
	}()
	for ts.AdmissionStats().Inflight != 1 {
		time.Sleep(time.Millisecond)
	}
	conn, err := transport.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	content := []byte("never stored\n")
	req := &core.RiderRequest{
		OpRequest: core.OpRequest{User: 0, Op: &cvs.CommitOp{Files: []cvs.CommitFile{{Path: "f", Hash: rcs.HashContent(content)}}}},
		Blobs:     [][]byte{content},
	}
	wc, ok := conn.(interface {
		CallBudget(req any, budget time.Duration) (any, error)
	})
	if !ok {
		t.Skipf("%T has no CallBudget", conn)
	}
	if _, err := wc.CallBudget(req, 5*time.Millisecond); err == nil {
		t.Fatal("a request parked behind a pinned slot with a 5 ms budget was served")
	}
	close(release)
	<-bdone
	if db.Ctr() != 0 {
		t.Fatalf("refused commit advanced the counter to %d", db.Ctr())
	}
	if _, err := store.Fetch("f", 1, rcs.HashContent(content)); err == nil {
		t.Fatal("a shed request staged its content")
	}
}
