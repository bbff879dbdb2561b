package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"trustedcvs/internal/core"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/vdb"
)

// decodeFrame decodes the first message of b as a fresh connection
// would see it.
func decodeFrame(b []byte) (any, error) {
	return NewDecoder(bytes.NewReader(b)).Decode()
}

func TestSizeLimit(t *testing.T) {
	big := &core.PushContentRequest{Content: make([]byte, MaxMessage+1)}
	if err := NewEncoder(io.Discard).Encode(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	// A hostile header claiming a giant body must be rejected before
	// allocation.
	if _, err := decodeFrame([]byte{0x7F, 0xFF, 0xFF, 0xFF}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge for hostile header, got %v", err)
	}
}

func TestTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(&core.OKResponse{}); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFrame(buf.Bytes()[:buf.Len()-2]); err == nil {
		t.Fatal("truncated body must error")
	}
}

func TestSize(t *testing.T) {
	small, err := Size(&core.OKResponse{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Size(&core.PushContentRequest{Content: make([]byte, 10000)})
	if err != nil {
		t.Fatal(err)
	}
	if small <= 4 || large < small+10000 {
		t.Fatalf("sizes: small %d large %d", small, large)
	}
}

func TestConnServeOverPipe(t *testing.T) {
	cli, srv := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- Serve(srv, func(req any, _ time.Duration) (any, error) {
			if r, ok := req.(*core.SyncRequest); ok {
				return &core.SyncRequest{From: r.From, Round: r.Round + 1}, nil
			}
			return nil, errors.New("boom")
		})
	}()
	conn := NewConn(cli)
	resp, err := conn.Call(&core.SyncRequest{From: 2, Round: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r := resp.(*core.SyncRequest); r.Round != 11 {
		t.Fatalf("resp: %+v", r)
	}
	// Server-side errors come back as errors.
	if _, err := conn.Call(&core.OKResponse{}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want boom error, got %v", err)
	}
	conn.Close()
	if err := <-done; err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("serve exit: %v", err)
	}
}

// TestStreamingDescriptorsAmortized pins the codec win the pipeline is
// built on: after the first message of a type, later frames omit the
// gob type descriptors, so a streaming frame is strictly smaller than
// the self-contained frame of the same message.
func TestStreamingDescriptorsAmortized(t *testing.T) {
	msg := &core.SyncRequest{From: 1, Round: 2}
	var sizes []int
	rec := writerFunc(func(p []byte) (int, error) {
		sizes = append(sizes, len(p))
		return len(p), nil
	})
	enc := NewEncoder(rec)
	for i := 0; i < 3; i++ {
		if err := enc.Encode(msg); err != nil {
			t.Fatal(err)
		}
	}
	selfContained, err := Size(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 {
		t.Fatalf("each Encode must issue exactly one Write, got %d writes", len(sizes))
	}
	if sizes[1] >= sizes[0] {
		t.Fatalf("descriptors not amortized: frame sizes %v", sizes)
	}
	if sizes[1] != sizes[2] {
		t.Fatalf("steady-state frames differ: %v", sizes)
	}
	if sizes[1] >= selfContained {
		t.Fatalf("steady-state streaming frame (%d) not smaller than self-contained (%d)", sizes[1], selfContained)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestStreamingRoundTrip(t *testing.T) {
	db := vdb.New(0)
	op := &vdb.WriteOp{Puts: []vdb.KV{{Key: "a", Val: []byte("1")}}}
	ans, vo, err := db.Apply(op)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	msgs := []any{
		&core.OpRequest{User: 3, Op: op},
		&core.OpResponseII{Answer: ans, VO: vo, Ctr: 0, Last: 7},
		&core.OpResponseII{Answer: ans, VO: vo, Ctr: 1, Last: 8},
		&core.SyncRequest{From: 1, Round: 2},
		core.SyncReportI{User: 1, LCtr: 5, GCtr: 9},
		&core.PushContentRequest{Path: "f", Rev: 1, Content: []byte("data")},
		&core.OKResponse{},
	}
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("Encode(%T): %v", m, err)
		}
	}
	dec := NewDecoder(&buf)
	for _, want := range msgs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("Decode for %T: %v", want, err)
		}
		if resp, ok := got.(*core.OpResponseII); ok {
			if _, err := vdb.Verify(op, resp.Answer, resp.VO, merkle.New(0).RootDigest()); err != nil {
				t.Fatalf("VO did not survive the stream: %v", err)
			}
		}
	}
	if _, err := dec.Decode(); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

// TestStreamingBudget: a hostile peer may not smuggle an over-limit
// gob message by splitting it across many small frames — the decoder
// enforces MaxMessage per decoded message, not just per frame.
func TestStreamingBudget(t *testing.T) {
	var raw bytes.Buffer
	big := &core.PushContentRequest{Content: make([]byte, MaxMessage+100)}
	if err := gob.NewEncoder(&raw).Encode(&envelope{Payload: big}); err != nil {
		t.Fatal(err)
	}
	var framed bytes.Buffer
	const chunk = 1 << 20
	for b := raw.Bytes(); len(b) > 0; {
		n := chunk
		if n > len(b) {
			n = len(b)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(n))
		framed.Write(hdr[:])
		framed.Write(b[:n])
		b = b[n:]
	}
	if _, err := NewDecoder(&framed).Decode(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

// TestEncoderPoisonedAfterError: a failed Encode must not leave a
// half-written gob stream that silently corrupts later messages.
func TestEncoderPoisonedAfterError(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Encode(unregistered{X: 1}); err == nil {
		t.Fatal("want encode error for unregistered type")
	}
	if err := enc.Encode(&core.OKResponse{}); err == nil {
		t.Fatal("encoder must stay poisoned after an encode error")
	}
}

type unregistered struct{ X int }
