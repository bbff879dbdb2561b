package driver

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"trustedcvs/internal/audit"
	"trustedcvs/internal/backoff"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/fault"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wal"
)

// recoveryEnv is a Protocol II deployment whose server and TCP hub
// outlive the clients, so a test can kill and restart the client side
// against live server state — the crash scenario the audit WAL exists
// for.
type recoveryEnv struct {
	t    *testing.T
	ts   *transport.Server
	hub  *broadcast.HubServer
	root string // WAL root; user i journals under user-<i>
	db   *vdb.DB
}

func newRecoveryEnv(t *testing.T) *recoveryEnv {
	t.Helper()
	db := vdb.New(0)
	handler := NewHandler(server.NewP2(db), cvs.NewStore())
	ts, err := transport.ListenOpts("127.0.0.1:0", handler, transport.Options{IdleTimeout: -1})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hub, err := broadcast.ListenHub("127.0.0.1:0")
	if err != nil {
		ts.Close()
		t.Fatalf("hub: %v", err)
	}
	env := &recoveryEnv{t: t, ts: ts, hub: hub, root: t.TempDir(), db: db}
	t.Cleanup(func() { hub.Close(); ts.Close() })
	return env
}

// client starts (or restarts) user id with a durable audit journal.
// fs overrides the journal filesystem (nil = real).
func (e *recoveryEnv) client(id, users int, epochLen uint64, fs durable.FS) *Client {
	e.t.Helper()
	conn, err := transport.Dial(e.ts.Addr())
	if err != nil {
		e.t.Fatalf("dial: %v", err)
	}
	// The identity template: replaced by the journal cursor's restored
	// state on resume. Sync scheduling is the auditor's job (k
	// effectively infinite).
	u := proto2.NewUser(sig.UserID(id), e.db.Root(), 1<<62)
	dc, err := NewP2EpochWAL(u, conn, broadcast.DialHubResume(e.hub.Addr()),
		users, epochLen, 0, filepath.Join(e.root, fmt.Sprintf("user-%d", id)), fs)
	if err != nil {
		e.t.Fatalf("client %d: %v", id, err)
	}
	return dc
}

// awaitEpochs polls until the client's auditor has closed at least n
// epochs.
func awaitEpochs(t *testing.T, dc *Client, n uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	poll := backoff.Poll(time.Millisecond)
	for dc.Audit().Completed() < n {
		if err := dc.Err(); err != nil {
			t.Fatalf("false alarm while waiting for %d epochs: %v", n, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d epochs closed", dc.Audit().Completed(), n)
		}
		poll.Sleep()
	}
}

// TestEpochAuditRecoveryReplay kills both clients of an epoch-audit
// deployment mid-epoch — closed epochs checkpointed, the tail epoch's
// obligations only in the journal — and restarts them against the
// live server. The restarted auditors must replay and re-verify the
// tail, rejoin the epoch protocol through the hub's history replay,
// and close every epoch with zero false alarms.
func TestEpochAuditRecoveryReplay(t *testing.T) {
	const (
		users    = 2
		epochLen = 4
	)
	env := newRecoveryEnv(t)

	cs := make([]*Client, users)
	for i := range cs {
		cs[i] = env.client(i, users, epochLen, nil)
	}
	// 8 global ops close epochs 0 and 1; two more land in epoch 2 and
	// stay unclosed — the optimistic tail a crash would normally lose.
	for i := 0; i < 10; i++ {
		if _, err := cs[i%users].Do(&vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for _, dc := range cs {
		awaitEpochs(t, dc, 2, 10*time.Second)
		if err := dc.WaitAudited(10 * time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	// Kill: no Seal, no drain of the open epoch. Closed epochs are
	// durably checkpointed; epoch 2's records exist only as journal
	// frames.
	for _, dc := range cs {
		dc.Close()
	}

	// Restart. Recovery must restore each user to its cursor cut,
	// re-verify the journaled tail, and re-arm the epoch protocol.
	for i := range cs {
		cs[i] = env.client(i, users, epochLen, nil)
	}
	defer func() {
		for _, dc := range cs {
			dc.Close()
		}
	}()
	replayed := uint64(0)
	for _, dc := range cs {
		replayed += dc.Audit().Stats().Replayed
	}
	if replayed == 0 {
		t.Fatal("no journaled obligations were replayed on restart")
	}
	// The restarted clients keep operating and the protocol closes the
	// pre-crash epoch along with the new ones.
	for i := 0; i < 6; i++ {
		if _, err := cs[i%users].Do(&vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("post%d", i), Val: []byte("v")}}}); err != nil {
			t.Fatalf("post-restart op %d: %v", i, err)
		}
	}
	for _, dc := range cs {
		dc.Seal()
	}
	for i, dc := range cs {
		if err := dc.WaitSealed(30 * time.Second); err != nil {
			t.Fatalf("client %d failed post-recovery closure: %v", i, err)
		}
		st := dc.Audit().Stats()
		if st.Durability != audit.DurabilityWAL {
			t.Fatalf("client %d durability = %v, want wal", i, st.Durability)
		}
	}
}

// TestEpochAuditRecoveryConvictsPreCrashTamper: the server tampers
// with an answer, the client dies before its auditor verifies the
// record, and the tampered bytes survive only in the journal. The
// restarted auditor must convict from replay alone — the exposure
// window closes across the crash.
func TestEpochAuditRecoveryConvictsPreCrashTamper(t *testing.T) {
	const epochLen = 8
	env := newRecoveryEnv(t)
	dc := env.client(0, 1, epochLen, nil)

	for i := 0; i < 3; i++ {
		if _, err := dc.Do(&vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := dc.WaitAudited(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Forge an obligation the auditor never gets to verify: a response
	// whose claimed root is garbage, journaled exactly as Submit would
	// journal it, then "crash" before the worker runs. Submitting
	// through the live auditor would verify it immediately; writing the
	// frame behind its back models the lost race between answer
	// release and audit.
	op := &vdb.WriteOp{Puts: []vdb.KV{{Key: "evil", Val: []byte("v")}}}
	raw, err := transportCall(t, env, dc, op)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	// Forge the answer: VO replay over the honest op can never produce
	// these bytes, so re-verification convicts.
	forged, err := vdb.EncodeAnswer(vdb.ReadAnswer{
		Results: []vdb.ReadResult{{Key: "forged", Found: true, Val: []byte("evil")}},
	})
	if err != nil {
		t.Fatalf("encode forged answer: %v", err)
	}
	raw.Answer = forged
	if err := appendForged(t, env, op, raw, epochLen); err != nil {
		t.Fatalf("forge: %v", err)
	}
	dc.Close()

	dc2 := env.client(0, 1, epochLen, nil)
	defer dc2.Close()
	deadline := time.Now().Add(20 * time.Second)
	poll := backoff.Poll(time.Millisecond)
	for dc2.Audit().Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("tampered pre-crash record not convicted after recovery")
		}
		poll.Sleep()
	}
}

// transportCall issues one raw server call on a fresh connection so
// the test can capture (and corrupt) the response before any auditor
// sees it.
func transportCall(t *testing.T, env *recoveryEnv, dc *Client, op vdb.Op) (*core.OpResponseII, error) {
	t.Helper()
	conn, err := transport.Dial(env.ts.Addr())
	if err != nil {
		return nil, err
	}
	raw, err := conn.Call(&core.OpRequest{User: dc.ID(), Op: op})
	if err != nil {
		return nil, err
	}
	resp, ok := raw.(*core.OpResponseII)
	if !ok {
		return nil, fmt.Errorf("bad response type %T", raw)
	}
	return resp, nil
}

// appendForged writes one obligation frame to user 0's journal the
// way Submit would, bypassing the (already stopped) auditor.
func appendForged(t *testing.T, env *recoveryEnv, op vdb.Op, resp *core.OpResponseII, epochLen uint64) error {
	t.Helper()
	// Frame epoch as Submit would derive it: g = Ctr+1, epoch = (g-1)/len.
	return audit.AppendRaw(filepath.Join(env.root, "user-0"),
		audit.Record{Op: op, Resp: resp}, resp.Ctr/epochLen)
}

// staleCursorRun drives two journaling clients into a crash that finds
// each cursor at least three closed epochs stale. A first life ends in
// a clean Stop, which writes a cursor and seals the journal's segment.
// In the second life, closing the epoch that segment ends in frees it,
// so one cursor is written; three more epochs then close while the
// fresh segment fills without sealing, so no cursor is written for
// them. The kill's Stop-time cursor write is the scheduled crash (the
// second life's second rename), as a real crash would lose it. It
// returns each user's cursor epoch on disk.
func staleCursorRun(t *testing.T, env *recoveryEnv, epochLen uint64, beforeKill func(cs []*Client)) []int64 {
	t.Helper()
	const users = 2
	cs := make([]*Client, users)
	g := 0
	do := func() {
		t.Helper()
		if _, err := cs[g%users].Do(&vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", g), Val: []byte("v")}}}); err != nil {
			t.Fatalf("op %d: %v", g, err)
		}
		g++
	}
	cursor := func(i int) int64 {
		t.Helper()
		cur, err := audit.LoadCursor(filepath.Join(env.root, fmt.Sprintf("user-%d", i)))
		if err != nil || cur == nil {
			t.Fatalf("user %d: cursor = %+v, %v", i, cur, err)
		}
		return cur.Epoch
	}

	for i := range cs {
		cs[i] = env.client(i, users, epochLen, nil)
	}
	for g < 2*int(epochLen)+2 {
		do()
	}
	for _, dc := range cs {
		awaitEpochs(t, dc, 2, 10*time.Second)
		if err := dc.WaitAudited(10 * time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
		dc.Close()
	}
	first := []int64{cursor(0), cursor(1)}

	ffs := make([]*fault.FaultyFS, users)
	for i := range cs {
		ffs[i] = &fault.FaultyFS{CrashAtRename: 2}
		cs[i] = env.client(i, users, epochLen, ffs[i])
	}
	cursors := make([]int64, users)
	for moved := 0; moved < users; {
		if g > 6*int(epochLen) {
			t.Fatalf("no cursor written by op %d although an epoch freed the sealed segment", g)
		}
		do()
		moved = 0
		for i := range cs {
			if cursors[i] = cursor(i); cursors[i] > first[i] {
				moved++
			}
		}
	}
	target := uint64(max(cursors[0], cursors[1]) + 4)
	for uint64(g) < (target+1)*epochLen {
		do()
	}
	for i, dc := range cs {
		awaitEpochs(t, dc, target, 20*time.Second)
		if err := dc.WaitAudited(10 * time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
		closed := int64(dc.Audit().Completed()) - 1
		if closed-cursors[i] < 3 || cursor(i) != cursors[i] {
			t.Fatalf("user %d: epochs through %d closed, cursor at %d (first seen %d): want three closed past an unmoved cursor",
				i, closed, cursor(i), cursors[i])
		}
		// A cursor write attempted since would have met the scheduled
		// crash and degraded the journal.
		if d := dc.Audit().Stats().Durability; d != audit.DurabilityWAL {
			t.Fatalf("user %d: durability %v: a cursor write was attempted after epoch %d", i, d, cursors[i])
		}
	}
	if beforeKill != nil {
		beforeKill(cs)
	}
	for i, dc := range cs {
		dc.Close()
		if !ffs[i].Crashed() {
			t.Fatalf("user %d: the scheduled crash never fired", i)
		}
		if got := cursor(i); got != cursors[i] {
			t.Fatalf("user %d: cursor after the kill at %d, want the stale epoch %d", i, got, cursors[i])
		}
	}
	return cursors
}

// journaledPast counts the frames of user i's journal past its cursor:
// the obligations recovery must re-verify.
func journaledPast(t *testing.T, env *recoveryEnv, i int, cursor int64) uint64 {
	t.Helper()
	n := uint64(0)
	if err := wal.Replay(filepath.Join(env.root, fmt.Sprintf("user-%d", i)), func(fr wal.Record) error {
		if int64(fr.Epoch) > cursor {
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEpochAuditRecoveryFromStaleCursor: a crash that finds the cursor
// three or more closed epochs behind replays every obligation
// journaled past it — epochs that closed before the crash included —
// with zero false alarms, and the restarted clients go on to close
// every epoch.
func TestEpochAuditRecoveryFromStaleCursor(t *testing.T) {
	const epochLen = 4
	env := newRecoveryEnv(t)
	cursors := staleCursorRun(t, env, epochLen, nil)
	want := make([]uint64, len(cursors))
	for i, c := range cursors {
		if want[i] = journaledPast(t, env, i, c); want[i] < 3*epochLen/2 {
			t.Fatalf("user %d: %d frames past the cursor, want at least three epochs' worth", i, want[i])
		}
	}
	cs := make([]*Client, len(cursors))
	for i := range cs {
		cs[i] = env.client(i, len(cs), epochLen, nil)
	}
	defer func() {
		for _, dc := range cs {
			dc.Close()
		}
	}()
	for i, dc := range cs {
		deadline := time.Now().Add(20 * time.Second)
		poll := backoff.Poll(time.Millisecond)
		for dc.Audit().Stats().Replayed < want[i] && dc.Err() == nil && time.Now().Before(deadline) {
			poll.Sleep()
		}
		if err := dc.WaitAudited(20 * time.Second); err != nil {
			t.Fatalf("user %d: false alarm replaying from a stale cursor: %v", i, err)
		}
		t.Logf("user %d: cursor at epoch %d, %d obligations journaled past it, %d replayed", i, cursors[i], want[i], dc.Audit().Stats().Replayed)
		if got := dc.Audit().Stats().Replayed; got != want[i] {
			t.Fatalf("user %d replayed %d obligations, %d were journaled past its cursor", i, got, want[i])
		}
	}
	for i := 0; i < 2*epochLen; i++ {
		if _, err := cs[i%len(cs)].Do(&vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("post%d", i), Val: []byte("v")}}}); err != nil {
			t.Fatalf("post-restart op %d: %v", i, err)
		}
	}
	for _, dc := range cs {
		dc.Seal()
	}
	for i, dc := range cs {
		if err := dc.WaitSealed(30 * time.Second); err != nil {
			t.Fatalf("client %d failed closure after a stale-cursor recovery: %v", i, err)
		}
	}
}

// TestEpochAuditStaleCursorConvictsTamper: an answer tampered in an
// epoch no cursor covers, released before the crash and verified by
// no one, is convicted by the restarted client's replay alone.
func TestEpochAuditStaleCursorConvictsTamper(t *testing.T) {
	const epochLen = 4
	env := newRecoveryEnv(t)
	staleCursorRun(t, env, epochLen, func(cs []*Client) {
		op := &vdb.WriteOp{Puts: []vdb.KV{{Key: "evil", Val: []byte("v")}}}
		raw, err := transportCall(t, env, cs[0], op)
		if err != nil {
			t.Fatalf("call: %v", err)
		}
		forged, err := vdb.EncodeAnswer(vdb.ReadAnswer{
			Results: []vdb.ReadResult{{Key: "forged", Found: true, Val: []byte("evil")}},
		})
		if err != nil {
			t.Fatalf("encode forged answer: %v", err)
		}
		raw.Answer = forged
		if err := appendForged(t, env, op, raw, epochLen); err != nil {
			t.Fatalf("forge: %v", err)
		}
	})
	dc := env.client(0, 2, epochLen, nil)
	defer dc.Close()
	deadline := time.Now().Add(20 * time.Second)
	poll := backoff.Poll(time.Millisecond)
	for dc.Audit().Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("answer tampered past a stale cursor not convicted after recovery")
		}
		poll.Sleep()
	}
}

// TestEpochAuditDegradeToSyncWAL: mid-run the journal's disk dies.
// The auditor must flip to degrade-to-sync — every later Submit
// blocks until its record is verified — finish the workload with zero
// loss, and expose the state via Stats.
func TestEpochAuditDegradeToSyncWAL(t *testing.T) {
	const epochLen = 4
	env := newRecoveryEnv(t)
	// The journal dies on its 5th fsync — the 4th append's flush, after
	// the first segment's zero fill: first appends succeed, then the
	// device vanishes mid-workload.
	ffs := &fault.FaultyFS{CrashAtSync: 5}
	dc := env.client(0, 1, epochLen, ffs)
	defer dc.Close()

	for i := 0; i < 12; i++ {
		if _, err := dc.Do(&vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	st := dc.Audit().Stats()
	if st.Durability != audit.DurabilityDegradedSync {
		t.Fatalf("durability = %v, want degraded-sync", st.Durability)
	}
	// Degraded submits hold the answer until verified: nothing may be
	// outstanding between operations.
	if st.Audited != st.Submitted {
		t.Fatalf("degraded mode left %d records unverified", st.Submitted-st.Audited)
	}
	dc.Seal()
	if err := dc.WaitSealed(20 * time.Second); err != nil {
		t.Fatalf("degraded run failed closure: %v", err)
	}
}
