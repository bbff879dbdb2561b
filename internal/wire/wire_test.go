package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/core"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/wire/wiretest"
)

// The two header flag bits, as the format fixes them.
const (
	budgetFlag = 1 << 31
	formatFlag = 1 << 30
)

// decodeFrame decodes the first message of b.
func decodeFrame(b []byte) (any, error) {
	return wire.NewDecoder(bytes.NewReader(b)).Decode()
}

func encodeFrame(t testing.TB, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.NewEncoder(&buf).Encode(msg); err != nil {
		t.Fatalf("Encode(%T): %v", msg, err)
	}
	return buf.Bytes()
}

// header renders a frame header word.
func header(word uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, word)
}

func TestSizeLimit(t *testing.T) {
	big := &core.PushContentRequest{Content: make([]byte, wire.MaxMessage+1)}
	if err := wire.NewEncoder(io.Discard).Encode(big); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	// A hostile header claiming a giant body must be rejected before
	// allocation.
	if _, err := decodeFrame([]byte{0x7F, 0xFF, 0xFF, 0xFF}); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("want ErrTooLarge for hostile header, got %v", err)
	}
	// One byte over, with and without a budget word.
	for _, hdr := range [][]byte{
		header(formatFlag | (wire.MaxMessage + 1)),
		append(header(formatFlag|budgetFlag|(wire.MaxMessage+1)), 0, 0, 0, 9),
	} {
		if _, err := decodeFrame(hdr); !errors.Is(err, wire.ErrTooLarge) {
			t.Fatalf("header %x: want ErrTooLarge, got %v", hdr, err)
		}
	}
}

// TestFormatBit pins the version handshake in both directions: this
// Decoder refuses a gob-era frame (no format bit) with ErrFormat before
// reading further, and a gob-era reader — whose whole header check was
// "length word, budget flag stripped, at most MaxMessage" — fails that
// check on every frame this Encoder writes.
func TestFormatBit(t *testing.T) {
	// The first bytes a gob-era peer sends: a small length, then gob.
	old := append(header(37), bytes.Repeat([]byte{0x25, 0xff, 0x81}, 13)...)
	if _, err := decodeFrame(old); !errors.Is(err, wire.ErrFormat) {
		t.Fatalf("gob-era frame: want ErrFormat, got %v", err)
	}
	if _, err := decodeFrame(append(header(budgetFlag|37), old[4:]...)); !errors.Is(err, wire.ErrFormat) {
		t.Fatalf("gob-era budget frame: want ErrFormat, got %v", err)
	}
	for _, msg := range []any{&core.OKResponse{}, &core.PushContentRequest{Content: make([]byte, 1<<20)}} {
		word := binary.BigEndian.Uint32(encodeFrame(t, msg)[:4])
		if word&^budgetFlag <= wire.MaxMessage {
			t.Fatalf("%T: header %#x would pass a gob-era reader's length check", msg, word)
		}
	}
}

// TestEOFKinds: a stream that ends between frames is a clean io.EOF;
// one that ends anywhere inside a header, a budget word or a body is
// io.ErrUnexpectedEOF.
func TestEOFKinds(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.NewEncoder(&buf).EncodeBudget(&core.SyncRequest{From: 1, Round: 2}, time.Second); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for cut := 0; cut <= len(frame); cut++ {
		d := wire.NewDecoder(bytes.NewReader(frame[:cut]))
		_, err := d.Decode()
		switch {
		case cut == 0 && err != io.EOF:
			t.Fatalf("empty stream: want bare io.EOF, got %v", err)
		case cut > 0 && cut < len(frame) && !errors.Is(err, io.ErrUnexpectedEOF):
			t.Fatalf("cut at %d of %d: want ErrUnexpectedEOF, got %v", cut, len(frame), err)
		case cut == len(frame):
			if err != nil {
				t.Fatalf("whole frame: %v", err)
			}
			if _, err := d.Decode(); err != io.EOF {
				t.Fatalf("after the last frame: want bare io.EOF, got %v", err)
			}
		}
	}
}

func TestTruncatedBody(t *testing.T) {
	frame := encodeFrame(t, &core.SyncRequest{From: 1, Round: 300})
	// The stream ends early.
	if _, err := decodeFrame(frame[:len(frame)-2]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream: %v", err)
	}
	// The frame is whole but its body stops short of the layout.
	short := append(header(formatFlag|uint32(len(frame)-4-1)), frame[4:len(frame)-1]...)
	if _, err := decodeFrame(short); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("short body: want ErrMalformed, got %v", err)
	}
	// And one byte too many is refused as well.
	long := append(header(formatFlag|uint32(len(frame)-4+1)), append(frame[4:len(frame):len(frame)], 0)...)
	if _, err := decodeFrame(long); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("trailing byte: want ErrMalformed, got %v", err)
	}
}

func TestUnknownTagAndKind(t *testing.T) {
	// No message is registered under 0xEE.
	if _, err := decodeFrame(append(header(formatFlag|1), 0xEE)); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("unknown tag: want ErrMalformed, got %v", err)
	}
	// An OpRequest whose Op slot holds an unknown kind, and one whose Op
	// slot holds a registered message that is not an operation.
	req := encodeFrame(t, &core.OpRequest{User: 1, Op: &vdb.NopOp{}})
	for _, kind := range []byte{0xEE, req[4] /* an OpRequest inside an OpRequest */} {
		bad := append([]byte(nil), req...)
		bad[6] = kind // header(4) tag(1) user(1) | op tag
		if _, err := decodeFrame(bad); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("op kind %#x: want ErrMalformed, got %v", kind, err)
		}
	}
}

// TestNestingBounded: session envelopes nested past any honest depth
// are refused by the Reader's depth guard, not by the goroutine stack.
func TestNestingBounded(t *testing.T) {
	body := bytes.Repeat([]byte{3, 1, 1}, 1<<20) // SessionRequest{1, 1, SessionRequest{...
	frame := append(header(formatFlag|uint32(len(body))), body...)
	if _, err := decodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
	var msg any = "leaf"
	for i := 0; i < 4; i++ {
		msg = &wire.SessionRequest{SID: 1, Seq: uint64(i), Req: msg}
	}
	if _, err := decodeFrame(encodeFrame(t, msg)); err != nil {
		t.Fatalf("four honest levels: %v", err)
	}
}

func TestSize(t *testing.T) {
	small, err := wire.Size(&core.OKResponse{})
	if err != nil {
		t.Fatal(err)
	}
	if small != 5 {
		t.Fatalf("an empty message is header + tag, got %d bytes", small)
	}
	large, err := wire.Size(&core.PushContentRequest{Content: make([]byte, 10000)})
	if err != nil {
		t.Fatal(err)
	}
	if large < small+10000 || large > small+10000+8 {
		t.Fatalf("sizes: small %d large %d", small, large)
	}
	if _, err := wire.Size(unregistered{X: 1}); err == nil {
		t.Fatal("Size of an unregistered type must fail")
	}
}

// serve is the smallest Serve handler: answer with f's result.
func serve(f func(req any) (any, error)) func(any, time.Duration, func(any, error) error) error {
	return func(req any, _ time.Duration, reply func(any, error) error) error { return reply(f(req)) }
}

func TestConnServeOverPipe(t *testing.T) {
	cli, srv := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- wire.Serve(srv, serve(func(req any) (any, error) {
			if r, ok := req.(*core.SyncRequest); ok {
				return &core.SyncRequest{From: r.From, Round: r.Round + 1}, nil
			}
			return nil, errors.New("boom")
		}))
	}()
	conn := wire.NewConn(cli)
	resp, err := conn.Call(&core.SyncRequest{From: 2, Round: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r := resp.(*core.SyncRequest); r.Round != 11 {
		t.Fatalf("resp: %+v", r)
	}
	// Server-side errors come back as errors.
	if _, err := conn.Call(&core.OKResponse{}); err == nil || !strings.Contains(err.Error(), "boom") || !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("want boom error, got %v", err)
	}
	conn.Close()
	if err := <-done; err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("serve exit: %v", err)
	}
}

// TestBudgetAndRefusalsCrossTheWire: the budget stamped by CallBudget
// reaches the handler, and the typed refusals a handler returns come
// back matchable with errors.Is, ErrRemote included.
func TestBudgetAndRefusalsCrossTheWire(t *testing.T) {
	cli, srv := net.Pipe()
	go wire.Serve(srv, func(req any, budget time.Duration, reply func(any, error) error) error {
		switch req {
		case "budget":
			return reply(budget.String(), nil)
		case "late":
			return reply(nil, wire.ErrDeadlineExceeded)
		default:
			return reply(nil, wire.ErrOverloaded)
		}
	})
	conn := wire.NewConn(cli)
	defer conn.Close()
	if got, err := conn.CallBudget("budget", 1500*time.Millisecond); err != nil || got != "1.5s" {
		t.Fatalf("budget seen by the handler: %v, %v", got, err)
	}
	if got, err := conn.Call("budget"); err != nil || got != "0s" {
		t.Fatalf("no budget: %v, %v", got, err)
	}
	if _, err := conn.Call("late"); !errors.Is(err, wire.ErrDeadlineExceeded) || !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("want remote ErrDeadlineExceeded, got %v", err)
	}
	if _, err := conn.Call("full"); !errors.Is(err, wire.ErrOverloaded) || !errors.Is(err, wire.ErrRemote) || errors.Is(err, wire.ErrDeadlineExceeded) {
		t.Fatalf("want remote ErrOverloaded, got %v", err)
	}
}

// TestFramesAreSelfContained pins what replaced gob's per-connection
// stream: a message's frame is the same bytes first or millionth,
// whatever the connection carried before, one Write each, and Size
// reports exactly that length.
func TestFramesAreSelfContained(t *testing.T) {
	msg := &core.SyncRequest{From: 1, Round: 2}
	var frames [][]byte
	rec := writerFunc(func(p []byte) (int, error) {
		frames = append(frames, append([]byte(nil), p...))
		return len(p), nil
	})
	enc := wire.NewEncoder(rec)
	for i := 0; i < 3; i++ {
		if err := enc.Encode(msg); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&core.PushContentRequest{Path: "between", Content: make([]byte, 100*i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(frames) != 6 {
		t.Fatalf("each Encode must issue exactly one Write, got %d writes", len(frames))
	}
	size, err := wire.Size(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i += 2 {
		if !bytes.Equal(frames[i], frames[0]) || len(frames[i]) != size {
			t.Fatalf("frame %d is %x (Size %d), the first was %x", i, frames[i], size, frames[0])
		}
	}
	if !bytes.Equal(frames[0], encodeFrame(t, msg)) {
		t.Fatal("a fresh Encoder writes different bytes")
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
	enc := wire.NewEncoder(&buf)
	msgs := []any{
		&core.OpRequest{User: 3, Op: op},
		&core.OpResponseII{Answer: ans, VO: vo, Ctr: 0, Last: 7},
		&core.OpResponseII{Answer: ans, VO: vo, Ctr: 1, Last: 8},
		&core.SyncRequest{From: 1, Round: 2},
		core.SyncReportI{User: 1, LCtr: 5, GCtr: 9},
		&core.PushContentRequest{Path: "f", Rev: 1, Content: []byte("data")},
		&core.OKResponse{},
		nil,
		"bare string",
	}
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("Encode(%T): %v", m, err)
		}
	}
	dec := wire.NewDecoder(&buf)
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

// TestDecodedMessageOwnsItsFrame pins the aliasing rule for a kept
// frame: byte fields of a decoded message are windows onto the frame
// buffer (no second copy), capacity-clipped so an append cannot run
// into a neighbour, and after Keep the Decoder never touches that
// buffer again.
func TestDecodedMessageOwnsItsFrame(t *testing.T) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	first := &vdb.WriteOp{Puts: []vdb.KV{{Key: "a", Val: []byte("first-value")}, {Key: "b", Val: []byte("neighbour")}}}
	second := &vdb.WriteOp{Puts: []vdb.KV{{Key: "a", Val: []byte("SECOND-VALU")}, {Key: "b", Val: []byte("NEIGHBOUR")}}}
	for _, op := range []*vdb.WriteOp{first, second, second} {
		if err := enc.Encode(&core.OpRequest{User: 1, Op: op}); err != nil {
			t.Fatal(err)
		}
	}
	dec := wire.NewDecoder(&buf)
	m1, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	dec.Keep()
	puts := m1.(*core.OpRequest).Op.(*vdb.WriteOp).Puts
	if cap(puts[0].Val) != len(puts[0].Val) {
		t.Fatalf("window not capacity-clipped: len %d cap %d", len(puts[0].Val), cap(puts[0].Val))
	}
	_ = append(puts[0].Val, "overrun"...)
	for i := 0; i < 2; i++ {
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	if string(puts[0].Val) != "first-value" || string(puts[1].Val) != "neighbour" {
		t.Fatalf("a kept message changed after later frames were decoded: %q %q", puts[0].Val, puts[1].Val)
	}
}

// TestWindowsLastUntilTheNextDecode: without Keep, a message's windows
// are valid until the next Decode, which reads its frame into the same
// buffer — the second frame's bytes, or under the race detector the
// poison written before it, show through a window kept too long.
func TestWindowsLastUntilTheNextDecode(t *testing.T) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	for _, v := range []string{"first-value", "other-value"} {
		if err := enc.Encode(&core.PushContentRequest{Path: "f", Content: []byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	dec := wire.NewDecoder(&buf)
	m1, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	content := m1.(*core.PushContentRequest).Content
	if string(content) != "first-value" {
		t.Fatalf("decoded %q", content)
	}
	m2, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got := string(m2.(*core.PushContentRequest).Content); got != "other-value" {
		t.Fatalf("second message decoded %q", got)
	}
	if string(content) == "first-value" {
		t.Fatal("the second frame was not read into the first frame's buffer")
	}
}

// TestLargeFrameIsNotRetained: the frame buffer the Decoder keeps for
// the next frame never exceeds readStep, so a frame as large as
// MaxMessage allows pins nothing once its message is dropped; Keep
// hands the buffer away.
func TestLargeFrameIsNotRetained(t *testing.T) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	for _, n := range []int{100, 4 * wire.ReadStep, 100, 100} {
		if err := enc.Encode(&core.PushContentRequest{Content: make([]byte, n)}); err != nil {
			t.Fatal(err)
		}
	}
	dec := wire.NewDecoder(&buf)
	decode := func() {
		t.Helper()
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if c := wire.FrameBufferCap(dec); c == 0 || c > wire.ReadStep {
		t.Fatalf("after a small frame the buffer holds %d bytes", c)
	}
	decode()
	if c := wire.FrameBufferCap(dec); c > wire.ReadStep {
		t.Fatalf("a %d-byte frame left a %d-byte buffer behind", 4*wire.ReadStep, c)
	}
	decode()
	if c := wire.FrameBufferCap(dec); c == 0 || c > wire.ReadStep {
		t.Fatalf("after a small frame the buffer holds %d bytes", c)
	}
	dec.Keep()
	if c := wire.FrameBufferCap(dec); c != 0 {
		t.Fatalf("Keep left the Decoder a %d-byte buffer", c)
	}
	decode()
}

// TestBuffersFollowTheMessageCarried: a connection's Encoder and
// Decoder keep what the message they last carried needs, not the
// largest one they ever carried — after one 64 KB frame and then a
// small one, neither holds a 64 KB buffer.
func TestBuffersFollowTheMessageCarried(t *testing.T) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	dec := wire.NewDecoder(&buf)
	for _, n := range []int{64 << 10, 100} {
		if err := enc.Encode(&core.PushContentRequest{Content: make([]byte, n)}); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	if c := wire.EncoderBufferCap(enc); c >= 64<<10 {
		t.Fatalf("after a small frame the Encoder holds a %d-byte buffer", c)
	}
	if c := wire.FrameBufferCap(dec); c >= 64<<10 {
		t.Fatalf("after a small frame the Decoder holds a %d-byte buffer", c)
	}
}

// TestSmallFramesReuseOneBuffer: a stream of small frames allocates a
// body buffer for the first frame only. The frames here decode to
// messages that allocate nothing themselves (nil, an empty struct), in
// sizes no larger than the first.
func TestSmallFramesReuseOneBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes allocation counts meaningless")
	}
	const runs = 100
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	for i := 0; i <= runs; i++ {
		msgs := []any{&core.OKResponse{}, nil}
		if err := enc.EncodeBudget(msgs[i%2], time.Duration(i%3)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	dec := wire.NewDecoder(bytes.NewReader(append([]byte(nil), buf.Bytes()...)))
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(runs-1, func() {
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("decoding a small frame allocated %.1f times", got)
	}
}

// TestEncodeErrorLeavesStreamUsable: a message that cannot be encoded
// is refused before a byte is written, so — unlike the gob stream this
// codec replaced — the connection carries on; a failed Write, which may
// have left half a frame behind, still breaks it for good.
func TestEncodeErrorLeavesStreamUsable(t *testing.T) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := enc.Encode(unregistered{X: 1}); err == nil {
		t.Fatal("want encode error for unregistered type")
	}
	if err := enc.Encode(&core.OpRequest{User: 1, Op: unregisteredOp{}}); err == nil {
		t.Fatal("want encode error for an unregistered nested op")
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused message put %d bytes on the wire", buf.Len())
	}
	if err := enc.Encode(&core.OKResponse{}); err != nil {
		t.Fatalf("encoder unusable after a refused message: %v", err)
	}
	if got, err := decodeFrame(buf.Bytes()); err != nil || got == nil {
		t.Fatalf("decode after a refused message: %v, %v", got, err)
	}

	boom := errors.New("link down")
	fails := true
	broken := wire.NewEncoder(writerFunc(func(p []byte) (int, error) {
		if fails {
			return len(p) / 2, boom
		}
		return len(p), nil
	}))
	if err := broken.Encode(&core.OKResponse{}); !errors.Is(err, boom) {
		t.Fatalf("want the write error, got %v", err)
	}
	fails = false
	if err := broken.Encode(&core.OKResponse{}); !errors.Is(err, boom) {
		t.Fatalf("encoder must stay broken after a failed write, got %v", err)
	}
}

type unregistered struct{ X int }

type unregisteredOp struct{}

func (unregisteredOp) Apply(*vdb.Tx) (any, error) { return nil, nil }
func (unregisteredOp) String() string             { return "unregistered" }

func TestRegisterRefusesReuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		f()
	}
	app := func(b []byte, _ *unregistered) ([]byte, error) { return b, nil }
	read := func(*binenc.Reader) *unregistered { return nil }
	mustPanic("tag 0", func() { wire.Register(0, app, read) })
	mustPanic("taken tag", func() { wire.Register(wire.Registered()[0].Tag, app, read) })
	mustPanic("type registered twice", func() {
		wire.Register(254, func(b []byte, _ *core.OKResponse) ([]byte, error) { return b, nil },
			func(*binenc.Reader) *core.OKResponse { return nil })
	})
}

// TestDecodeHostileAllocation bounds what a hostile peer can make the
// Decoder allocate: 64 KiB of read-ahead plus a small multiple of the
// bytes it actually sent, whatever its headers and counts claim.
func TestDecodeHostileAllocation(t *testing.T) {
	honest := encodeFrame(t, &core.OpRequest{User: 1, Op: &vdb.ReadOp{Keys: []string{"k1", "k2"}}})
	lyingCount := append([]byte(nil), honest...)
	lyingCount[7] = 0x7F // ReadOp key count: 127 keys in a 6-byte remainder
	big := make([]byte, 200<<10)
	// The rider envelopes end in their blob list: count, then one
	// length-prefixed blob. Inflate the count, then the length.
	riderReq := encodeFrame(t, &core.RiderRequest{OpRequest: core.OpRequest{User: 1, Op: &vdb.NopOp{}}, Blobs: [][]byte{{'x'}}})
	riderResp := encodeFrame(t, &core.RiderResponse{Resp: &core.OKResponse{}, Blobs: [][]byte{{'x'}}})
	tail := func(frame []byte, back int, v byte) []byte {
		out := append([]byte(nil), frame...)
		out[len(out)-back] = v
		return out
	}
	cases := map[string][]byte{
		"rider request, blob count":    tail(riderReq, 3, 0x7F),
		"rider request, blob length":   tail(riderReq, 2, 0x7F),
		"rider response, blob count":   tail(riderResp, 3, 0x7F),
		"rider response, blob length":  tail(riderResp, 2, 0x7F),
		"rider response, huge count":   append(header(formatFlag|12), 34, 31, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0),
		"max header, ten bytes":        append(header(formatFlag|wire.MaxMessage), make([]byte, 10)...),
		"max header, budget, no body":  append(header(formatFlag|budgetFlag|wire.MaxMessage), 0, 0, 0, 1),
		"max header, 200 KiB":          append(header(formatFlag|wire.MaxMessage), big...),
		"count the body cannot back":   lyingCount,
		"huge uvarint count":           append(header(formatFlag|12), 16, 1, 48, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
		"over the limit":               header(formatFlag | (wire.MaxMessage + 1)),
		"gob-era frame":                append(header(wire.MaxMessage), big...),
		"garbage after an honest one":  append(append([]byte(nil), honest...), bytes.Repeat([]byte{0xFF}, 64)...),
		"content length past the body": append(header(formatFlag|8), 28, 1, 'p', 1, 0xFF, 0xFF, 0xFF, 0x07),
	}
	for name, input := range cases {
		input := input
		t.Run(name, func(t *testing.T) {
			run := func() {
				d := wire.NewDecoder(bytes.NewReader(input))
				for {
					if _, err := d.Decode(); err != nil {
						if !typedRefusal(err) {
							t.Errorf("untyped refusal: %v", err)
						}
						return
					}
				}
			}
			run() // warm up: error formatting, bufio
			// TotalAlloc is process-wide, so another goroutine's
			// allocations can land in one run's count; a decoder that
			// really over-allocates does so in every run, so the least
			// of five is judged.
			grown := uint64(math.MaxUint64)
			for i := 0; i < 5; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				grown = min(grown, after.TotalAlloc-before.TotalAlloc)
			}
			if limit := uint64(64<<10 + 8<<10 + 4*len(input)); grown > limit {
				t.Errorf("%d input bytes made the decoder allocate %d (limit %d)", len(input), grown, limit)
			}
		})
	}
}

// typedRefusal reports whether err is one of the errors the Decoder
// promises for hostile input.
func typedRefusal(err error) bool {
	for _, want := range []error{io.EOF, io.ErrUnexpectedEOF, wire.ErrTooLarge, wire.ErrFormat, wire.ErrMalformed} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

func TestGoldenFrames(t *testing.T) {
	wiretest.Golden(t, []wiretest.Sample{
		{Msg: "payload"},
		{Variant: "empty", Msg: ""},
		{Msg: &wire.ErrorReply{Msg: "transport: admission queue full", Code: wire.CodeOverloaded}},
		{Variant: "plain", Msg: &wire.ErrorReply{Msg: "boom"}},
		{Msg: &wire.SessionRequest{SID: 0xFEEDFACE, Seq: 7, Req: &core.SyncRequest{From: 1, Round: 2}}},
		{Variant: "nil", Msg: &wire.SessionRequest{SID: 1, Seq: 1}},
	})
}
