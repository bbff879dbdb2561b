package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"trustedcvs/internal/core"
)

func echoHandler(req any) (any, error) {
	if r, ok := req.(*core.SyncRequest); ok {
		return &core.SyncRequest{From: r.From, Round: r.Round * 2}, nil
	}
	return nil, fmt.Errorf("unexpected %T", req)
}

func TestInproc(t *testing.T) {
	c := NewInproc(echoHandler)
	resp, err := c.Call(&core.SyncRequest{Round: 21})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*core.SyncRequest).Round != 42 {
		t.Fatalf("resp: %+v", resp)
	}
	c.Close()
	if _, err := c.Call(&core.SyncRequest{}); err == nil {
		t.Fatal("closed caller must error")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(1); i <= 10; i++ {
		resp, err := c.Call(&core.SyncRequest{Round: i})
		if err != nil {
			t.Fatal(err)
		}
		if resp.(*core.SyncRequest).Round != 2*i {
			t.Fatalf("round %d: %+v", i, resp)
		}
	}
}

// TestPipelinedHandlerOverlaps proves the default server really does
// invoke the handler from multiple connections at once: two calls
// rendezvous inside the handler, which is impossible under a global
// handler lock.
func TestPipelinedHandlerOverlaps(t *testing.T) {
	arrived := make(chan struct{}, 2)
	proceed := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(req any) (any, error) {
		arrived <- struct{}{}
		select {
		case <-proceed:
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("no overlapping call arrived")
		}
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Call(&core.SyncRequest{Round: 1})
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatal("second call never entered the handler: transport serializes")
		}
	}
	close(proceed)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmissionLimitOneBounds proves the worker bound: with the
// admission limit pinned to 1, two in-flight calls never overlap even
// though the server is otherwise pipelined.
func TestAdmissionLimitOneBounds(t *testing.T) {
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	srv, err := ListenOpts("127.0.0.1:0", func(req any) (any, error) {
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return echoHandler(req)
	}, Options{Admission: AdmissionOptions{MinLimit: 1, MaxLimit: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				if _, err := c.Call(&core.SyncRequest{Round: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if maxInFlight != 1 {
		t.Fatalf("admission limit 1 allowed %d in flight", maxInFlight)
	}
}

// TestCloseDrains: Close must sever live client connections and wait
// for serving goroutines, so callers can rely on no handler running
// after Close returns.
func TestCloseDrains(t *testing.T) {
	started := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(req any) (any, error) {
		close(started)
		time.Sleep(50 * time.Millisecond)
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Call(&core.SyncRequest{Round: 1})
	<-started
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(any) (any, error) {
		return nil, fmt.Errorf("refused")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&core.OKResponse{}); err == nil {
		t.Fatal("want server error")
	}
}
