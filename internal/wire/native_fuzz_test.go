package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/vdb"
)

// FuzzFrameDecode drives the streaming Decoder with arbitrary bytes.
// Properties: no panic on any input, and a frame header promising more
// than MaxMessage must be rejected with ErrTooLarge before any
// allocation — the decode budget is the server-side DoS defense.
func FuzzFrameDecode(f *testing.F) {
	db := vdb.New(0)
	ans, vo, err := db.Apply(&vdb.WriteOp{Puts: []vdb.KV{{Key: "k", Val: []byte("v")}}})
	if err != nil {
		f.Fatal(err)
	}
	var frame bytes.Buffer
	if err := NewEncoder(&frame).Encode(&core.OpResponseII{Answer: ans, VO: vo, Ctr: 0, Last: 7}); err != nil {
		f.Fatal(err)
	}
	honest := frame.Bytes()
	f.Add(append([]byte(nil), honest...))
	f.Add(append([]byte(nil), honest[:len(honest)/2]...))
	var over [8]byte
	binary.BigEndian.PutUint32(over[:4], MaxMessage+1)
	f.Add(over[:])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		d := NewDecoder(bytes.NewReader(b))
		msg, err := d.Decode()
		// A flagged header carries its budget word before the length is
		// judged, so the over-limit verdict needs those 4 bytes too.
		if len(b) >= 4 {
			word, need := binary.BigEndian.Uint32(b[:4]), 4
			if word&budgetFlag != 0 {
				word, need = word&^budgetFlag, 8
			}
			if len(b) >= need && word > MaxMessage && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("header promises %d bytes (over MaxMessage) but Decode returned %v", word, err)
			}
		}
		if err == nil {
			// A decoded hostile response flows into VO materialization
			// downstream; that path must be total as well.
			if resp, ok := msg.(*core.OpResponseII); ok && resp.VO != nil {
				_, _ = resp.VO.Tree()
			}
		}
		for i := 0; i < 3 && err == nil; i++ {
			_, err = d.Decode()
		}
	})
}
