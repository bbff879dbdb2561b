package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/wire/wiretest"
)

// FuzzSnapshotLoad drives the snapshot loader with arbitrary bytes.
// The properties are totality and one spelling: a checkpoint file is
// the one input the server reads with no adversary model in front of
// it (and a witness reads the primary's) — a corrupt or hostile file
// must produce a clean error, never a panic and never a silently wrong
// restore — and whatever decodes re-encodes to the very bytes it was
// decoded from. The checked-in corpus is regenerated by
// `go test -run SnapshotFuzzCorpus -update`.
func FuzzSnapshotLoad(f *testing.F) {
	for _, seed := range snapshotFuzzSeeds(f) {
		f.Add(seed.b)
	}
	f.Add(append([]byte(snapMagic), "\x00\x00\x00\x00\x00\x00\x00\x01\x8c"...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		// As a file, and — the checksum stops nearly every mutation there
		// — as the payload of a well-formed envelope, which is what a
		// witness faces: the sender computes the checksum.
		var wrapped bytes.Buffer
		if err := durable.WriteEnvelope(&wrapped, snapMagic, digest.DomainSnapshot, b); err != nil {
			t.Fatal(err)
		}
		for _, file := range [][]byte{b, wrapped.Bytes()} {
			if snap, err := DecodeP2Snapshot(bytes.NewReader(file)); err == nil {
				var again bytes.Buffer
				if err := EncodeP2Snapshot(&again, snap); err != nil || !bytes.Equal(again.Bytes(), file) {
					t.Fatalf("accepted P2 input re-encodes differently (err %v)", err)
				}
				_, _, _, _ = RestoreP2(snap)
			}
		}
	})
}

type fuzzSeed struct {
	name string
	b    []byte
}

// snapshotFuzzSeeds are the inputs pinned under
// testdata/fuzz/FuzzSnapshotLoad: an honest snapshot, a Protocol III
// snapshot of the retired 0x8D layout (which must be refused), and the
// ways a file rots.
func snapshotFuzzSeeds(t testing.TB) []fuzzSeed {
	_, snap := goldenP2Single(t)
	var buf bytes.Buffer
	if err := EncodeP2Snapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	honest := bytes.Clone(buf.Bytes())
	p3, err := os.ReadFile(filepath.Join(goldenDir, "p3-snapshot-backups.snap"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(honest)
	flipped[len(flipped)/2] ^= 0x20
	// A header promising a giant payload: must be rejected or fail on
	// truncation without a giant allocation.
	huge := binary.BigEndian.AppendUint64([]byte(snapMagic), maxSnapshotBytes+1)
	payload := func(file []byte) []byte { return file[len(snapMagic)+8 : len(file)-digest.Size] }
	return []fuzzSeed{
		{"seed-honest-snapshot", honest},
		{"seed-honest-p3", p3},
		{"seed-payload-p2", payload(honest)},
		{"seed-payload-p3", payload(p3)},
		{"seed-truncated", honest[:len(honest)/2]},
		{"seed-flipped-payload", flipped},
		{"seed-bare-magic", []byte(snapMagic)},
		{"seed-huge-length", huge},
		{"seed-short-gob", []byte(fmt.Sprintf("%s%s", snapMagic, "\x00\x00\x00\x00\x00\x00\x00\x04gobs"))},
	}
}

// TestSnapshotFuzzCorpus keeps the checked-in corpus what today's
// encoder writes (-update rewrites it).
func TestSnapshotFuzzCorpus(t *testing.T) {
	for _, seed := range snapshotFuzzSeeds(t) {
		wiretest.Bytes(t, filepath.Join("testdata", "fuzz", "FuzzSnapshotLoad", seed.name),
			[]byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.b)))
	}
}
