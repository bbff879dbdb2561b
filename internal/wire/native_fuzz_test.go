package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
	"trustedcvs/internal/wire/wiretest"

	// Linked for the tag table: every registering package.
	_ "trustedcvs/internal/driver"
)

// goldenFrames reads every checked-in frame under dir (wiretest.Dir or
// wiretest.RetiredDir) — wire's own and those of each package that
// registers messages — in path order.
func goldenFrames(t testing.TB, dir string) (paths []string, frames [][]byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "*", dir, "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	return paths, frames
}

// FuzzFrameDecode drives the Decoder with arbitrary bytes, headers and
// bodies alike. Properties: no panic on any input; a header promising
// more than MaxMessage is refused with ErrTooLarge (or, lacking the
// format bit, ErrFormat) before any allocation; every refusal is one
// of the typed errors; and whatever is accepted re-encodes to exactly
// the bytes it was decoded from — the codec has one spelling per value.
func FuzzFrameDecode(f *testing.F) {
	db := vdb.New(0)
	ans, vo, err := db.Apply(&vdb.WriteOp{Puts: []vdb.KV{{Key: "k", Val: []byte("v")}}})
	if err != nil {
		f.Fatal(err)
	}
	honest := encodeFrame(f, &core.OpResponseII{Answer: ans, VO: vo, Ctr: 0, Last: 7})
	f.Add(append([]byte(nil), honest...))
	f.Add(append([]byte(nil), honest[:len(honest)/2]...))
	var over [8]byte
	binary.BigEndian.PutUint32(over[:4], formatFlag|(wire.MaxMessage+1))
	f.Add(over[:])
	f.Add([]byte{})
	f.Add([]byte{0x40, 0, 0, 1, 0xff})
	// A header declaring MaxMessage, followed by ten bytes.
	f.Add(append(header(formatFlag|wire.MaxMessage), make([]byte, 10)...))
	// The frames of retired messages seed it too: each must be refused.
	for _, dir := range []string{wiretest.Dir, wiretest.RetiredDir} {
		_, frames := goldenFrames(f, dir)
		for _, frame := range frames {
			f.Add(frame)
			mutations(frame, func(b []byte) { f.Add(b) })
		}
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		d := wire.NewDecoder(bytes.NewReader(b))
		var consumed int
		for i := 0; i < 4; i++ {
			msg, err := d.Decode()
			rest := b[consumed:]
			// A flagged header carries its budget word before the length
			// is judged, so the over-limit verdict needs those 4 bytes too.
			if len(rest) >= 4 {
				word, need := binary.BigEndian.Uint32(rest[:4]), 4
				if word&budgetFlag != 0 {
					need = 8
				}
				switch {
				case word&formatFlag == 0:
					if !errors.Is(err, wire.ErrFormat) {
						t.Fatalf("header %#x lacks the format bit but Decode returned %v", word, err)
					}
				case len(rest) >= need && word&^(budgetFlag|formatFlag) > wire.MaxMessage:
					if !errors.Is(err, wire.ErrTooLarge) {
						t.Fatalf("header promises %d bytes (over MaxMessage) but Decode returned %v", word&^(budgetFlag|formatFlag), err)
					}
				}
			}
			if err != nil {
				if !typedRefusal(err) {
					t.Fatalf("untyped refusal: %v", err)
				}
				return
			}
			// Accepted: the frame re-encodes byte for byte.
			var again bytes.Buffer
			if err := wire.NewEncoder(&again).EncodeBudget(msg, d.Budget()); err != nil {
				t.Fatalf("accepted %T does not re-encode: %v", msg, err)
			}
			n := again.Len()
			if n > len(rest) || !bytes.Equal(again.Bytes(), rest[:n]) {
				t.Fatalf("accepted %T re-encodes differently:\n got %x\nfrom %x", msg, again.Bytes(), rest[:min(n, len(rest))])
			}
			consumed += n
			// A decoded hostile response flows into VO materialization
			// downstream; that path must be total as well.
			if resp, ok := msg.(*core.OpResponseII); ok && resp.VO != nil {
				_, _ = resp.VO.Tree()
			}
		}
	})
}

// mutations feeds emit the honest frame's hostile neighbours: the tag
// flipped, the frame cut at every offset (spaced out for long ones),
// the first count after the tag inflated, a non-minimal uvarint there,
// and a trailing byte under a matching header.
func mutations(frame []byte, emit func([]byte)) {
	clone := func() []byte { return append([]byte(nil), frame...) }
	if len(frame) < 5 {
		return
	}
	b := clone()
	b[4] ^= 0x55
	emit(b)
	step := 1 + len(frame)/24
	for cut := 1; cut < len(frame); cut += step {
		emit(clone()[:cut])
	}
	if len(frame) > 5 {
		b = clone()
		b[5] = 0x7F
		emit(b)
		// 0x80 0x00 spells zero in two bytes.
		b = append(clone()[:5], 0x80, 0x00)
		b = append(b, frame[6:]...)
		binary.BigEndian.PutUint32(b[:4], formatFlag|uint32(len(b)-4))
		emit(b)
	}
	b = append(clone(), 0)
	binary.BigEndian.PutUint32(b[:4], formatFlag|uint32(len(b)-4))
	emit(b)
}
