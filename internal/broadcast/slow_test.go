package broadcast

import (
	"net"
	"testing"
	"time"

	"trustedcvs/internal/core"
	"trustedcvs/internal/wire"
)

// blobPayload is a bulky publication: big enough that a frozen
// subscriber's TCP buffers fill after a handful of messages, which is
// what forces the hub's writer into a blocked Encode. A content push is
// the registered message that carries a sequence number and a blob.
func blobPayload(seq int, data []byte) *core.PushContentRequest {
	return &core.PushContentRequest{Rev: uint64(seq), Content: data}
}

func blobSeq(m Message) int { return int(m.Payload.(*core.PushContentRequest).Rev) }

// dialRawResume opens a raw resumable hub connection the test fully
// controls: hello is sent, but nothing is read until the test decides
// to — the deliberately frozen subscriber.
func dialRawResume(t *testing.T, addr string, sid uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := wire.NewEncoder(conn).Encode(&hubHello{SID: sid, Last: 0}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return conn
}

// TestHubFrozenSubscriberEvicted freezes one subscriber (connects,
// says hello, never reads) while a healthy one keeps consuming. The
// hub must deliver everything to the healthy subscriber promptly,
// evict the frozen connection within the write deadline, and let a
// redial catch up from the log with nothing lost.
func TestHubFrozenSubscriberEvicted(t *testing.T) {
	h, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.SetLimits(0, 300*time.Millisecond)

	healthy := DialHubResume(h.Addr())
	defer healthy.Close()

	frozen := dialRawResume(t, h.Addr(), 77)
	defer frozen.Close()

	// Wait until the hub has registered both connections so the frozen
	// one is actually in the fan-out set before publishing starts.
	waitFor(t, "both conns registered", func() bool { return h.Stats().Conns == 2 })

	const n = 200
	blob := make([]byte, 64<<10)
	for i := 1; i <= n; i++ {
		if err := healthy.Publish(Message{From: 1, Payload: blobPayload(i, blob)}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	// The healthy subscriber sees every message in order, regardless of
	// the frozen peer: a slow consumer must not stall the hub.
	deadline := time.After(20 * time.Second)
	for i := 1; i <= n; i++ {
		select {
		case m := <-healthy.Recv():
			if got := blobSeq(m); got != i {
				t.Fatalf("healthy: got seq %d, want %d", got, i)
			}
		case <-deadline:
			t.Fatalf("healthy subscriber stalled at message %d", i)
		}
	}

	// The frozen connection is evicted within the write deadline (plus
	// scheduling slack) — not parked forever in a blocked Encode.
	waitFor(t, "frozen conn evicted", func() bool { return h.Stats().Conns == 1 })
	if st := h.Stats(); st.Evictions == 0 {
		t.Fatalf("expected at least one eviction, stats %+v", st)
	}

	// A redial catches up from the hub's log: same order, nothing lost.
	resumed := DialHubResume(h.Addr())
	defer resumed.Close()
	for i := 1; i <= n; i++ {
		select {
		case m := <-resumed.Recv():
			if got := blobSeq(m); got != i {
				t.Fatalf("resumed: got seq %d, want %d", got, i)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("resumed subscriber stalled at message %d", i)
		}
	}
}

// TestHubOverflowFlipsToReplay drives a resumable connection's live
// queue past its depth and asserts the hub flips it into replay mode
// instead of severing it: the same connection survives, receives the
// whole log gaplessly (queued frames first, then replay), and rejoins
// live fan-out once caught up.
func TestHubOverflowFlipsToReplay(t *testing.T) {
	h, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Tiny queue so overflow is reachable; generous write deadline so
	// the briefly-unread connection is not evicted before it resumes.
	h.SetLimits(4, 30*time.Second)

	pub := DialHubResume(h.Addr())
	defer pub.Close()
	slow := dialRawResume(t, h.Addr(), 88)
	defer slow.Close()
	waitFor(t, "both conns registered", func() bool { return h.Stats().Conns == 2 })

	// Publish until the slow conn's queue overflows and flips (its TCP
	// buffers plus a 4-deep queue absorb only so many 128KiB frames),
	// with a hard cap so a pathological environment fails loudly.
	// Publish is asynchronous on a resumable channel, so wait for each
	// publication to reach the hub's log before judging the flip state.
	blob := make([]byte, 128<<10)
	published := 0
	for h.Stats().SlowFlips == 0 {
		if published >= 512 {
			t.Fatalf("no overflow flip after %d publications; stats %+v", published, h.Stats())
		}
		published++
		if err := pub.Publish(Message{From: 1, Payload: blobPayload(published, blob)}); err != nil {
			t.Fatalf("publish %d: %v", published, err)
		}
		want := published
		waitFor(t, "publication logged", func() bool { return h.Stats().LogLen >= want })
	}
	if st := h.Stats(); st.Evictions != 0 {
		t.Fatalf("conn was severed, want replay flip; stats %+v", st)
	}

	// The slow consumer wakes up and reads everything: entry indices
	// must be exactly 1..LogLen with no gaps and no duplicates — the
	// queued backlog drains before the replay stream.
	total := h.Stats().LogLen
	dec := wire.NewDecoder(slow)
	next := uint64(1)
	readUpTo := func(limit uint64) {
		for next <= limit {
			slow.SetReadDeadline(time.Now().Add(20 * time.Second))
			msg, err := dec.Decode()
			if err != nil {
				t.Fatalf("slow conn read at idx %d: %v", next, err)
			}
			e, ok := msg.(*hubSeq)
			if !ok {
				continue // hello ack
			}
			if e.Idx != next {
				t.Fatalf("gap or duplicate: got idx %d, want %d", e.Idx, next)
			}
			next++
		}
	}
	readUpTo(uint64(total))

	// Once caught up the conn rejoins live fan-out: one more
	// publication arrives as the next index on the same connection.
	if err := pub.Publish(Message{From: 1, Payload: blobPayload(published+1, nil)}); err != nil {
		t.Fatal(err)
	}
	readUpTo(uint64(total) + 1)
	if st := h.Stats(); st.Conns != 2 || st.Evictions != 0 {
		t.Fatalf("slow conn should have survived: stats %+v", st)
	}
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// SetLimits tunes the hub's slow-consumer guard: queue is the
// per-connection outbound queue depth for connections accepted after
// the call, writeTimeout the per-frame write deadline for all
// connections. Zero keeps the current value for either. Production
// hubs run the defaults; only these tests tune them.
func (h *HubServer) SetLimits(queue int, writeTimeout time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if queue > 0 {
		h.queueDepth = queue
	}
	if writeTimeout > 0 {
		h.writeT = writeTimeout
	}
}
