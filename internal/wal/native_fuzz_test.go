package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/digest"
)

// FuzzWALReplay drives replay and reboot-repair with an arbitrary
// segment image. The journal is read back with no adversary model in
// front of it, so the properties are totality and clean truncation:
//
//   - Replay never panics, and every record it yields carries a payload
//     whose frame checksum verifies — a corrupt frame may end or error
//     the replay, never leak through it;
//   - Open repairs any torn tail in place: after repair the journal
//     accepts appends, and a full replay yields exactly the intact
//     record prefix of the original image plus the new record — repair
//     loses nothing that was whole and resurrects nothing that was torn.
func FuzzWALReplay(f *testing.F) {
	// A genuine two-epoch journal image as the honest seed.
	seedDir := f.TempDir()
	w, err := Open(Options{Dir: seedDir})
	if err != nil {
		f.Fatal(err)
	}
	for i, ep := range []uint64{0, 0, 1} {
		if err := w.Append(ep, bytes.Repeat([]byte{byte('a' + i)}, 9+i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	honest, err := os.ReadFile(filepath.Join(seedDir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(append([]byte(nil), honest...))
	f.Add(append([]byte(nil), honest[:len(honest)-1]...))   // torn footer
	f.Add(append([]byte(nil), honest[:len(segMagic)+7]...)) // torn header
	flipped := append([]byte(nil), honest...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	// What a killed process leaves: one clean frame, then the
	// segment's zero fill.
	f.Add(append(appendFrame([]byte(segMagic), 0, []byte("abc")), make([]byte, 256)...))
	// A header promising a giant payload: must be rejected as torn
	// without a giant allocation.
	huge := []byte(segMagic)
	huge = binary.BigEndian.AppendUint64(huge, maxFrameBytes+1)
	huge = binary.BigEndian.AppendUint64(huge, 0)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), b, 0o666); err != nil {
			t.Fatal(err)
		}
		var before []Record
		if err := Replay(dir, func(r Record) error {
			if frameDigest(r.Epoch, r.Payload) != frameSumOf(b, r) {
				t.Fatalf("replayed record not backed by a checksummed frame: epoch %d, %d bytes", r.Epoch, len(r.Payload))
			}
			before = append(before, r)
			return nil
		}); err != nil {
			return // a single corrupt segment may only fail cleanly
		}

		// Reboot: repair the tail, append past it, and replay the result.
		w, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open failed to repair a single-segment journal: %v", err)
		}
		probe := []byte("probe-after-repair")
		if err := w.Append(1<<40, probe); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close after repair: %v", err)
		}
		var after []Record
		if err := Replay(dir, func(r Record) error {
			after = append(after, r)
			return nil
		}); err != nil {
			t.Fatalf("replay after repair must be clean: %v", err)
		}
		if len(after) != len(before)+1 {
			t.Fatalf("repair changed the intact prefix: %d records before, %d after (+1 probe expected)", len(before), len(after))
		}
		for i, r := range before {
			if after[i].Epoch != r.Epoch || !bytes.Equal(after[i].Payload, r.Payload) {
				t.Fatalf("record %d changed across repair", i)
			}
		}
		if last := after[len(after)-1]; last.Epoch != 1<<40 || !bytes.Equal(last.Payload, probe) {
			t.Fatalf("probe record corrupted: epoch %d, %q", last.Epoch, last.Payload)
		}
	})
}

// frameSumOf re-derives, straight from the raw image, the footer of the
// frame that claims r's epoch and payload — an independent check that a
// yielded record is really backed by a checksummed frame and not
// fabricated by a parser bug.
func frameSumOf(img []byte, r Record) digest.Digest {
	needle := appendFrame(nil, r.Epoch, r.Payload)
	if i := bytes.Index(img, needle); i >= 0 {
		var sum digest.Digest
		copy(sum[:], needle[len(needle)-digest.Size:])
		return sum
	}
	return digest.Digest{} // no such frame: the comparison above fails
}
