package broadcast

import (
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"trustedcvs/internal/core"
)

func recvOne(t *testing.T, ch Channel) Message {
	t.Helper()
	select {
	case m, ok := <-ch.Recv():
		if !ok {
			t.Fatal("channel closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for broadcast")
		return Message{}
	}
}

func TestHubEveryoneReceivesIncludingSender(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	a, b, c := hub.Join(), hub.Join(), hub.Join()

	msg := Message{From: 1, Payload: &core.SyncRequest{From: 1, Round: 7}}
	if err := a.Publish(msg); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []Channel{a, b, c} {
		got := recvOne(t, ch)
		if got.From != 1 || got.Payload.(*core.SyncRequest).Round != 7 {
			t.Fatalf("got %+v", got)
		}
	}
}

func TestHubOrderPreserved(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	a, b := hub.Join(), hub.Join()
	for i := uint64(0); i < 20; i++ {
		if err := a.Publish(Message{From: 0, Payload: &core.SyncRequest{Round: i}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 20; i++ {
		got := recvOne(t, b)
		if got.Payload.(*core.SyncRequest).Round != i {
			t.Fatalf("out of order at %d: %+v", i, got)
		}
	}
}

func TestHubLeave(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	a, b := hub.Join(), hub.Join()
	b.Close()
	if err := a.Publish(Message{From: 0, Payload: &core.OKResponse{}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a)
	if _, ok := <-b.Recv(); ok {
		t.Fatal("closed channel should not deliver")
	}
}

func TestHubClosePublishErrors(t *testing.T) {
	hub := NewHub()
	a := hub.Join()
	hub.Close()
	if err := a.Publish(Message{}); err == nil {
		t.Fatal("publish on closed hub must error")
	}
}

func TestTCPHub(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	a, err := DialHub(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialHub(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Give the hub a moment to register both connections.
	time.Sleep(50 * time.Millisecond)

	if err := a.Publish(Message{From: 2, Payload: core.SyncReportI{User: 2, LCtr: 3, GCtr: 4}}); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []Channel{a, b} {
		got := recvOne(t, ch)
		if got.From != 2 {
			t.Fatalf("got %+v", got)
		}
		rep, ok := got.Payload.(core.SyncReportI)
		if !ok || rep.LCtr != 3 {
			t.Fatalf("payload: %#v", got.Payload)
		}
	}
}

func TestTCPHubManyMessages(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, err := DialHub(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialHub(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	time.Sleep(50 * time.Millisecond)

	const n = 100
	for i := uint64(0); i < n; i++ {
		if err := a.Publish(Message{From: 0, Payload: &core.SyncRequest{Round: i}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		got := recvOne(t, b)
		if got.Payload.(*core.SyncRequest).Round != i {
			t.Fatalf("out of order at %d", i)
		}
	}
}

// failOnceListener fails its first Accept, as a listener out of file
// descriptors does.
type failOnceListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *failOnceListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestTCPHubSurvivesFailedAccept: a failed Accept is waited out, not
// the end of the hub — a member that joins afterwards is served.
func TestTCPHubSurvivesFailedAccept(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := serveHub(&failOnceListener{Listener: lis})
	defer hub.Close()
	a, err := DialHub(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Publish(Message{From: 3, Payload: &core.SyncRequest{Round: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a); got.From != 3 {
		t.Fatalf("got %+v", got)
	}
}
