package vdb_test

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/vdb"
)

// answerGolden pins the canonical bytes of one value of each of the
// eleven answer types. The byte format is a
// contract between binaries — client and server compare answers by
// byte equality — so a change here is a wire format bump.
var answerGolden = []struct {
	name string
	ans  any
	hex  string
}{
	{"read", vdb.ReadAnswer{Results: []vdb.ReadResult{
		{Key: "k1", Found: true, Val: []byte("v1")},
		{Key: "missing"},
	}}, "0102026b310102763107" + "6d697373696e67" + "0000"},
	{"write", vdb.WriteAnswer{Put: 3, Deleted: 1}, "020602"},
	{"range", vdb.RangeAnswer{Results: []vdb.ReadResult{{Key: "a", Found: true, Val: []byte{0xff}}}}, "030101610101ff"},
	{"range-empty", vdb.RangeAnswer{}, "0300"},
	{"nop", vdb.NopAnswer{}, "04"},
	{"cas-lost", vdb.CASAnswer{Actual: []byte("cur")}, "050003637572"},
	{"cas-won", vdb.CASAnswer{Swapped: true}, "050100"},
	{"commit", cvs.CommitAnswer{Results: []cvs.CommitResult{
		{Path: "a.go", Rev: 300},
		{Path: "b", Conflict: true},
	}}, "100204612e676fac0200" + "01620001"},
	{"checkout", cvs.CheckoutAnswer{Files: []cvs.FileStatus{
		{Path: "f", Found: true, Rev: 2, Hash: digest.Digest{0: 0xaa, 31: 0xbb}, Dead: true},
	}}, "110101660102" + "aa" + "000000000000000000000000000000000000000000000000000000000000" + "bb" + "01"},
	{"log", cvs.LogAnswer{Revisions: []cvs.RevisionRecord{
		{Rev: 1, Hash: digest.Digest{0: 1}, Author: "al", TimeUnix: 7, Log: "hi"},
	}}, "120145" +
		"0000000000000001" + "01" + "00000000000000000000000000000000000000000000000000000000000000" +
		"00" + "0000000000000007" + "0000000000000002" + "616c" + "0000000000000002" + "6869"},
	{"list", cvs.ListAnswer{Files: []cvs.FileStatus{{Path: "x", Found: true, Rev: 1}}},
		"13010178" + "0101" + "0000000000000000000000000000000000000000000000000000000000000000" + "00"},
	{"tag", cvs.TagAnswer{Tagged: []cvs.FileStatus{{Path: "gone"}}},
		"14010467" + "6f6e65" + "0000" + "0000000000000000000000000000000000000000000000000000000000000000" + "00"},
	{"remove", cvs.RemoveAnswer{Results: []cvs.RemoveResult{{Path: "p", Rev: 5}, {Path: "q"}}}, "150201700501" + "7100"},
}

// TestAnswerGolden: every answer type encodes to its pinned bytes and
// decodes back to the same Go value of the same (value, not pointer)
// type — callers assert ans.(cvs.CommitAnswer).
func TestAnswerGolden(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	for _, tc := range answerGolden {
		got, err := vdb.EncodeAnswer(tc.ans)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if hex.EncodeToString(got) != tc.hex {
			t.Errorf("%s: encoded\n  %x\nwant\n  %s", tc.name, got, tc.hex)
		}
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", tc.name, err)
		}
		back, err := vdb.DecodeAnswer(want)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", tc.name, err)
		}
		if reflect.TypeOf(back) != reflect.TypeOf(tc.ans) {
			t.Errorf("%s: decoded as %T, want %T", tc.name, back, tc.ans)
		}
		if !reflect.DeepEqual(back, tc.ans) {
			t.Errorf("%s: decoded %#v, want %#v", tc.name, back, tc.ans)
		}
		seen[reflect.TypeOf(tc.ans)] = true
	}
	if len(seen) != 11 {
		t.Errorf("golden table covers %d answer types, want all 11", len(seen))
	}
}

// TestAnswerNilAndEmptyEncodeAlike: gob sent nothing for an empty
// slice and decoded it as nil; the binary form keeps both halves.
func TestAnswerNilAndEmptyEncodeAlike(t *testing.T) {
	pairs := [][2]any{
		{vdb.ReadAnswer{}, vdb.ReadAnswer{Results: []vdb.ReadResult{}}},
		{vdb.CASAnswer{}, vdb.CASAnswer{Actual: []byte{}}},
		{cvs.LogAnswer{}, cvs.LogAnswer{Revisions: []cvs.RevisionRecord{}}},
		{cvs.ListAnswer{}, cvs.ListAnswer{Files: []cvs.FileStatus{}}},
		{vdb.ReadAnswer{Results: []vdb.ReadResult{{Key: "k"}}}, vdb.ReadAnswer{Results: []vdb.ReadResult{{Key: "k", Val: []byte{}}}}},
	}
	for _, p := range pairs {
		a, errA := vdb.EncodeAnswer(p[0])
		b, errB := vdb.EncodeAnswer(p[1])
		if errA != nil || errB != nil {
			t.Fatalf("%T: encode: %v / %v", p[0], errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%T: nil encodes %x, empty encodes %x", p[0], a, b)
		}
		back, err := vdb.DecodeAnswer(b)
		if err != nil {
			t.Fatalf("%T: decode: %v", p[0], err)
		}
		if !reflect.DeepEqual(back, p[0]) {
			t.Errorf("%T: empty decoded to %#v, want the nil form %#v", p[0], back, p[0])
		}
	}
}

// TestAnswerRejects pins the decoder's refusals by example; the fuzz
// target below states the general property.
func TestAnswerRejects(t *testing.T) {
	for name, h := range map[string]string{
		"empty":                "",
		"tag 0":                "00",
		"unknown tag":          "07",
		"gob stream":           "0f10001276" + "64622e4e6f70416e73776572ff8100",
		"trailing byte":        "0400",
		"non-minimal count":    "01" + "8100" + "00",
		"non-minimal varint":   "02" + "8000" + "00",
		"count beyond input":   "01" + "ffffffff0f",
		"truncated value":      "0101" + "016b" + "01" + "05" + "7631",
		"boolean 2":            "0101" + "016b" + "02" + "00",
		"retired cross answer": retiredCrossAnswer,
		"short file status":    "1101" + "0166" + "0102" + "aabb",
		"bad revision record":  "1201" + "03" + "010203",
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s: bad hex: %v", name, err)
		}
		if ans, err := vdb.DecodeAnswer(b); err == nil {
			t.Errorf("%s: accepted as %#v", name, ans)
		}
	}
	for _, ans := range []any{nil, 7} {
		if b, err := vdb.EncodeAnswer(ans); err == nil {
			t.Errorf("EncodeAnswer(%#v) = %x, want an error", ans, b)
		}
	}
}

// retiredCrossAnswer is a two-leg cross-shard answer as binaries with
// a sharded database encoded it; tag 6 is never reused.
const retiredCrossAnswer = "060202020004"

// FuzzAnswerDecode feeds arbitrary bytes — the claimed answer of an
// untrusted server — to DecodeAnswer. Properties: no panic; and the
// decoder admits only canonical forms, i.e. whatever it accepts
// re-encodes to exactly the input bytes. That second property is what
// makes checkClaim's byte comparison equivalent to value comparison.
func FuzzAnswerDecode(f *testing.F) {
	for _, tc := range answerGolden {
		b, err := hex.DecodeString(tc.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	retired, _ := hex.DecodeString(retiredCrossAnswer)
	f.Add(retired)
	f.Add(retired[:len(retired)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		ans, err := vdb.DecodeAnswer(b)
		if err != nil {
			return
		}
		again, err := vdb.EncodeAnswer(ans)
		if err != nil {
			t.Fatalf("accepted %x as %#v, which does not encode: %v", b, ans, err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted non-canonical input\n  in  %x\n  out %x\n  as  %#v", b, again, ans)
		}
	})
}
