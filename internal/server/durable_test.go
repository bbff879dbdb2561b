package server_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/rcs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// openRecord opens the durable record at path and the request handler
// that serves and journals it.
func openRecord(t *testing.T, path string, epochLen uint64) (*server.Durable, transport.Handler) {
	t.Helper()
	d, err := server.OpenDurable(path, 0, epochLen)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.Handler(driver.NewHandler(d.Server(), d.Store()))
}

func carriedCommit(path string, content []byte, base uint64) *core.RiderRequest {
	return &core.RiderRequest{
		OpRequest: core.OpRequest{
			User: 0,
			Op:   &cvs.CommitOp{Files: []cvs.CommitFile{{Path: path, Hash: rcs.HashContent(content), BaseRev: base}}, Author: "alice"},
		},
		Blobs: [][]byte{content},
	}
}

func writeOp(i int, val []byte) *core.OpRequest {
	return &core.OpRequest{
		User: sig.UserID(i % 2),
		Op:   &vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%04d", i), Val: val}}},
	}
}

// apply sends ops [from, to) through h.
func apply(t *testing.T, h transport.Handler, from, to int, val []byte) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := h(writeOp(i, val)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

// TestOpJournalRecoveryReplay: every op acknowledged through the
// record's handler is re-applied on reopen from the journal alone,
// reproducing the exact head.
func TestOpJournalRecoveryReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	d, h := openRecord(t, path, 4)
	apply(t, h, 0, 10, []byte("v"))
	if err := d.Err(); err != nil {
		t.Fatalf("journal degraded: %v", err)
	}
	if err := d.Kill(); err != nil {
		t.Fatal(err)
	}

	fresh, _ := openRecord(t, path, 4)
	defer fresh.Close()
	if from, applied, _ := fresh.Recovered(); from != "" || applied != 10 {
		t.Fatalf("recovered from %q replaying %d ops, want the journal alone with 10", from, applied)
	}
	if got, want := fresh.Server().DB().Root(), d.Server().DB().Root(); got != want {
		t.Fatalf("replayed root %s != live root %s", got.Short(), want.Short())
	}
}

// TestOpJournalRecoveryFromSnapshot: replay skips everything the
// restored snapshot already covers and re-applies only the tail.
func TestOpJournalRecoveryFromSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	d, h := openRecord(t, path, 4)
	apply(t, h, 0, 6, []byte("v"))
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	apply(t, h, 6, 10, []byte("v"))
	if err := d.Kill(); err != nil {
		t.Fatal(err)
	}

	restored, _ := openRecord(t, path, 4)
	defer restored.Close()
	if from, applied, _ := restored.Recovered(); from != path || applied != 4 {
		t.Fatalf("recovered from %q replaying %d ops, want %s and 4", from, applied, path)
	}
	if got, want := restored.Server().DB().Root(), d.Server().DB().Root(); got != want {
		t.Fatalf("recovered root %s != live root %s", got.Short(), want.Short())
	}
}

// TestOpJournalRecoveryReplaysPushes: content pushes recorded in the
// journal are re-pushed into the store on replay — an acked commit's
// blob must survive the same crash its authenticated record does —
// and a push whose blob the restored snapshot already holds is
// skipped, not counted.
func TestOpJournalRecoveryReplaysPushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	d, h := openRecord(t, path, 4)
	push := func(path string, rev uint64, content string) {
		if _, err := h(&core.PushContentRequest{Path: path, Rev: rev, Content: []byte(content)}); err != nil {
			t.Fatalf("push %s@%d: %v", path, rev, err)
		}
	}
	push("a.txt", 1, "one")
	// A snapshot of the store that already saw a.txt@1.
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	apply(t, h, 0, 1, []byte("v"))
	push("a.txt", 2, "two")
	push("b.txt", 1, "bee")
	if err := d.Kill(); err != nil {
		t.Fatal(err)
	}

	fresh, _ := openRecord(t, path, 4)
	defer fresh.Close()
	if _, applied, pushes := fresh.Recovered(); applied != 1 || pushes != 2 {
		t.Fatalf("replayed %d ops / %d pushes, want 1 / 2 (a.txt@1 is in the snapshot)", applied, pushes)
	}
	for _, want := range []struct {
		path    string
		rev     uint64
		content string
	}{{"a.txt", 1, "one"}, {"a.txt", 2, "two"}, {"b.txt", 1, "bee"}} {
		got, err := fresh.Store().Fetch(want.path, want.rev, rcs.HashContent([]byte(want.content)))
		if err != nil {
			t.Fatalf("after replay, fetch %s@%d: %v", want.path, want.rev, err)
		}
		if string(got) != want.content {
			t.Fatalf("after replay, %s@%d = %q, want %q", want.path, want.rev, got, want.content)
		}
	}
}

// TestReopenSkipsSnapshottedPushes: after a clean stop the snapshot
// holds every journaled blob, so reopening replays no push and still
// serves both; after a crash with no snapshot, both are replayed.
func TestReopenSkipsSnapshottedPushes(t *testing.T) {
	one, two := []byte("one\n"), []byte("two\n")
	for _, tc := range []struct {
		name   string
		stop   func(*server.Durable) error
		pushes int
	}{
		{"close", (*server.Durable).Close, 0},
		{"kill", (*server.Durable).Kill, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.bin")
			d, h := openRecord(t, path, 4)
			for _, req := range []any{
				&core.PushContentRequest{Path: "a", Rev: 1, Content: one},
				&core.PushContentRequest{Path: "b", Rev: 1, Content: two},
				&core.OpRequest{Op: &cvs.CommitOp{Files: []cvs.CommitFile{
					{Path: "a", Hash: rcs.HashContent(one)},
					{Path: "b", Hash: rcs.HashContent(two)},
				}, Author: "alice"}},
			} {
				if _, err := h(req); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.stop(d); err != nil {
				t.Fatal(err)
			}

			re, _ := openRecord(t, path, 4)
			defer re.Close()
			if _, applied, pushes := re.Recovered(); pushes != tc.pushes {
				t.Fatalf("reopen replayed %d ops and %d pushes, want %d pushes", applied, pushes, tc.pushes)
			}
			for _, want := range [][]byte{one, two} {
				if got, err := re.Store().Fetch("", 0, rcs.HashContent(want)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%q after reopen: %q %v", want, got, err)
				}
			}
		})
	}
}

// TestJournalReplaysCarriedPush: content that rode with a commit is
// journaled as the PushContentRequest a client would have sent ahead of
// it, so a crash after the commit was acknowledged replays the blob
// along with the operation. A conflicting commit's blob was stored
// before the conflict was known and is journaled like any other: an
// orphan no record names.
func TestJournalReplaysCarriedPush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	d, handler := openRecord(t, path, 4)
	db := d.Server().DB()

	v1, v2, stale := []byte("first\n"), []byte("second\n"), []byte("stale\n")
	for _, req := range []*core.RiderRequest{
		carriedCommit("f", v1, 0),
		carriedCommit("f", v2, 1),
		carriedCommit("f", stale, 1), // conflicts: head is 2
	} {
		if _, err := handler(req); err != nil {
			t.Fatal(err)
		}
	}
	// A push that travelled on its own is journaled as before.
	lone := []byte("pushed alone\n")
	if _, err := handler(&core.PushContentRequest{Path: "g", Rev: 1, Content: lone}); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if err := d.Kill(); err != nil {
		t.Fatal(err)
	}

	// The crash: nothing but the journal survives.
	d2, _ := openRecord(t, path, 4)
	defer d2.Close()
	db2, store2 := d2.Server().DB(), d2.Store()
	_, applied, pushes := d2.Recovered()
	if applied != 3 || pushes != 4 {
		t.Fatalf("replayed %d ops and %d pushes, want 3 ops (one a conflict) and 4 pushes (three carried, one alone)", applied, pushes)
	}
	if db2.Root() != db.Root() {
		t.Fatal("replay did not reproduce the root")
	}
	// Every revision the replayed database records is served by the
	// replayed store, under the hash the record carries.
	for rev, want := range map[uint64][]byte{1: v1, 2: v2} {
		ans, err := db2.ApplyPlain(&cvs.CheckoutOp{Paths: []string{"f"}, Rev: rev})
		if err != nil {
			t.Fatal(err)
		}
		cvs.VisitCheckoutAnswer(ans, func(_ int, st cvs.FileStatus) {
			if got, err := store2.Fetch("f", st.Rev, st.Hash); err != nil || !bytes.Equal(got, want) {
				t.Errorf("f@%d after replay: %q %v", rev, got, err)
			}
		})
	}
	for _, orphan := range [][]byte{stale, lone} {
		if got, err := store2.Fetch("", 0, rcs.HashContent(orphan)); err != nil || !bytes.Equal(got, orphan) {
			t.Fatalf("%q after replay: %q %v", orphan, got, err)
		}
	}
}

// TestSnapshotKeepsCachedRiderResponse: the session table caches what
// the handler returned, so a checkpoint taken after a carried checkout
// holds a RiderResponse behind an interface field; it must encode, and
// a retry against the restored table must replay it, riders and all.
func TestSnapshotKeepsCachedRiderResponse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	d, handler := openRecord(t, path, 0)
	sessions := d.Sessions()

	content := []byte("cached with its rider\n")
	if _, err := sessions.Dispatch(&wire.SessionRequest{SID: 7, Seq: 1, Req: carriedCommit("f", content, 0)}, handler); err != nil {
		t.Fatal(err)
	}
	checkout := &wire.SessionRequest{SID: 7, Seq: 2, Req: &core.RiderRequest{
		OpRequest: core.OpRequest{User: 0, Op: &cvs.CheckoutOp{Paths: []string{"f"}}},
		Want:      true,
	}}
	first, err := sessions.Dispatch(checkout, handler)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with a cached rider response: %v", err)
	}
	if err := d.Kill(); err != nil {
		t.Fatal(err)
	}
	d2, _ := openRecord(t, path, 0)
	defer d2.Close()
	again, err := d2.Sessions().Dispatch(checkout, func(any) (any, error) {
		t.Fatal("the retry reached the handler instead of the restored cache")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := again.(*core.RiderResponse)
	if !ok || len(rr.Blobs) != 1 || !bytes.Equal(rr.Blobs[0], content) {
		t.Fatalf("replayed %#v, want the rider response with its blob", again)
	}
	want := first.(*core.RiderResponse).Resp.(*core.OpResponseII)
	if got, ok := rr.Resp.(*core.OpResponseII); !ok || !bytes.Equal(got.Answer, want.Answer) || got.Ctr != want.Ctr {
		t.Fatalf("replayed protocol response %#v differs from the original", rr.Resp)
	}
}

// TestCheckpointIsReproducible: two checkpoints of the same quiesced
// server are the same file, byte for byte — many sessions, replies
// cached out of order — so a snapshot can be compared, deduplicated and
// golden-tested.
func TestCheckpointIsReproducible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	d, handler := openRecord(t, path, 0)
	defer d.Close()
	for i, sid := range []uint64{900, 3, 41, 7, 650, 12} {
		for _, seq := range []uint64{3, 1, 2} {
			content := []byte(fmt.Sprintf("s%d-%d\n", sid, seq))
			req := carriedCommit(fmt.Sprintf("f%d", i), content, 0)
			if _, err := d.Sessions().Dispatch(&wire.SessionRequest{SID: sid, Seq: seq, Req: req}, handler); err != nil {
				t.Fatal(err)
			}
		}
	}
	var files [3][]byte
	for i := range files {
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !bytes.Equal(files[i], files[0]) {
			t.Fatalf("checkpoint %d of the same state differs from the first", i+1)
		}
	}
}

// TestJournalIsTheRecord: the snapshot is a cached prefix of the
// journal. A journal that was never truncated, replayed onto an empty
// server, checkpoints to the very bytes the live server does — the
// database, the last-user marker and every blob, carried or pushed
// alone (sessions empty on both sides).
func TestJournalIsTheRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	d, h := openRecord(t, path, 4)
	for i := 0; i < 5; i++ {
		if _, err := h(carriedCommit(fmt.Sprintf("f%d", i%2), []byte(fmt.Sprintf("v%d\n", i)), uint64(i/2))); err != nil {
			t.Fatal(err)
		}
		if _, err := h(&core.PushContentRequest{Path: "g", Rev: uint64(i + 1), Content: []byte(fmt.Sprintf("g%d\n", i))}); err != nil {
			t.Fatal(err)
		}
		apply(t, h, i, i+1, []byte("v"))
	}
	if _, err := h(&core.RiderRequest{OpRequest: core.OpRequest{User: 1, Op: &cvs.CheckoutOp{Paths: []string{"f0"}}}, Want: true}); err != nil {
		t.Fatal(err)
	}
	encode := func(d *server.Durable) []byte {
		t.Helper()
		snap, err := server.CheckpointP2(d.Server(), d.Store(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := server.EncodeP2Snapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	live := encode(d)
	if err := d.Kill(); err != nil {
		t.Fatal(err)
	}

	replayed, _ := openRecord(t, path, 4)
	defer replayed.Close()
	if from, ops, _ := replayed.Recovered(); from != "" || ops != 11 {
		t.Fatalf("recovered from %q replaying %d ops, want the journal alone with 11", from, ops)
	}
	if !bytes.Equal(encode(replayed), live) {
		t.Fatal("the journal replayed onto an empty server does not checkpoint to the live server's bytes")
	}
}

// TestGenerationFallbackReachesJournalHead: whichever generation a
// reopen falls back to, the journal replayed over it reaches the acked
// head. 620 ops of 8 KB values (the journal rotates segments, so
// truncation really drops files) with checkpoints at 300 and 600; the
// record then ends killed (no final checkpoint) or closed, and its
// newest generation is kept, has one byte flipped, or is gone (a crash
// between rotate and install). Truncating the journal through the
// newest checkpoint would leave a fallback to the previous generation
// stuck at its counter, 300 ops behind what was acknowledged.
func TestGenerationFallbackReachesJournalHead(t *testing.T) {
	val := bytes.Repeat([]byte{0xA5}, 8<<10)
	for _, end := range []string{"killed", "closed"} {
		base := filepath.Join(t.TempDir(), "state.bin")
		d, h := openRecord(t, base, 0)
		apply(t, h, 0, 300, val)
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		apply(t, h, 300, 600, val)
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		apply(t, h, 600, 620, val)
		wantCtr, wantRoot := d.Server().DB().Head()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		stop := d.Kill
		if end == "closed" {
			stop = d.Close
		}
		if err := stop(); err != nil {
			t.Fatal(err)
		}

		for _, tc := range []struct {
			name   string
			damage func(path string) error
			from   func(path string) string
		}{
			{"newest kept", func(string) error { return nil }, func(p string) string { return p }},
			{"newest corrupted", func(p string) error {
				b, err := os.ReadFile(p)
				if err != nil {
					return err
				}
				b[len(b)/2] ^= 0x01
				return os.WriteFile(p, b, 0o644)
			}, durable.PrevPath},
			{"newest removed", os.Remove, durable.PrevPath},
		} {
			t.Run(end+"/"+tc.name, func(t *testing.T) {
				path := copyRecord(t, base)
				if err := tc.damage(path); err != nil {
					t.Fatal(err)
				}
				r, _ := openRecord(t, path, 0)
				defer r.Close()
				if from, _, _ := r.Recovered(); from != tc.from(path) {
					t.Fatalf("restored %s, want %s", from, tc.from(path))
				}
				if ctr, root := r.Server().DB().Head(); ctr != wantCtr || root != wantRoot {
					t.Fatalf("reopened at (%d, %s), acked head is (%d, %s)", ctr, root.Short(), wantCtr, wantRoot.Short())
				}
			})
		}
	}
}

// copyRecord copies the record at path — both generations and the
// journal — into a fresh directory and returns its snapshot path there.
func copyRecord(t *testing.T, path string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), filepath.Base(path))
	cp := func(from, to string) {
		b, err := os.ReadFile(from)
		if os.IsNotExist(err) && from == durable.PrevPath(path) {
			return // one checkpoint so far: no previous generation
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cp(path, dst)
	cp(durable.PrevPath(path), durable.PrevPath(dst))
	segs, err := os.ReadDir(path + ".journal")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dst+".journal", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		cp(filepath.Join(path+".journal", seg.Name()), filepath.Join(dst+".journal", seg.Name()))
	}
	return dst
}

// TestCheckpointsBesideLiveTraffic: writers dispatch through the
// session table while checkpoints run beside them, the journal
// receiving appends out of counter order and being truncated as it
// rotates. The record killed at the end reopens at the acked head from
// either generation.
func TestCheckpointsBesideLiveTraffic(t *testing.T) {
	val := bytes.Repeat([]byte{0x5A}, 8<<10)
	base := filepath.Join(t.TempDir(), "state.bin")
	d, h := openRecord(t, base, 4)
	const writers, perWriter = 4, 50
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := d.Checkpoint(); err != nil {
				t.Error(err)
			}
		}
	}()
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for seq := 1; seq <= perWriter; seq++ {
				req := &wire.SessionRequest{SID: uint64(w + 1), Seq: uint64(seq), Req: writeOp(w*perWriter+seq, val)}
				if _, err := d.Sessions().Dispatch(req, h); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	<-stopped
	wantCtr, wantRoot := d.Server().DB().Head()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if err := d.Kill(); err != nil {
		t.Fatal(err)
	}
	for _, removed := range []bool{false, true} {
		path := copyRecord(t, base)
		if removed {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		r, _ := openRecord(t, path, 4)
		if ctr, root := r.Server().DB().Head(); ctr != wantCtr || root != wantRoot {
			t.Errorf("newest generation removed %v: reopened at (%d, %s), acked head is (%d, %s)", removed, ctr, root.Short(), wantCtr, wantRoot.Short())
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
