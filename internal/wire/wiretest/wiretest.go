// Package wiretest holds the golden-bytes checks that pin the wire and
// journal formats. Every package that registers messages with
// internal/wire runs Golden over samples of its own types (it is the
// only one that can build the unexported ones); internal/wire's own
// tests then walk the tag table and fail for any tag without a golden.
// Imported by tests only.
package wiretest

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"trustedcvs/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden wire frames and journal records under testdata/golden")

// Dir is where a package keeps its golden frames, relative to the
// package directory.
const Dir = "testdata/golden/wire"

// RetiredDir is where a package keeps the golden frames of messages
// this binary no longer speaks, relative to the package directory.
const RetiredDir = "testdata/golden/retired"

// Sample is one message to pin. Variant distinguishes several samples
// of one type ("absent", "empty"); it may be empty for one of them.
// Want, when set, is what the frame must decode to instead of Msg: a
// message whose parts write themselves (a server's VO, which holds the
// tree it prunes) reads back as one holding their bytes.
type Sample struct {
	Variant string
	Msg     any
	Want    any
}

// Name returns the golden file stem of a message: its type as %T prints
// it, pointer star dropped, then "-variant".
func Name(msg any, variant string) string {
	name := strings.TrimPrefix(reflect.TypeOf(msg).String(), "*")
	if variant != "" {
		name += "-" + variant
	}
	return name
}

// Golden checks each sample against Dir/<Name>.bin, which holds the
// message as one budget-less frame: the Encoder must produce exactly
// those bytes (-update rewrites them), wire.Size must agree, the
// Decoder must read them back to a value reflect.DeepEqual to the
// sample (or its Want), and that value must re-encode to the same bytes.
func Golden(t *testing.T, samples []Sample) {
	t.Helper()
	for _, s := range samples {
		name := Name(s.Msg, s.Variant)
		var buf bytes.Buffer
		if err := wire.NewEncoder(&buf).Encode(s.Msg); err != nil {
			t.Errorf("%s: encode: %v", name, err)
			continue
		}
		frame := buf.Bytes()
		Bytes(t, filepath.Join(Dir, name+".bin"), frame)
		if n, err := wire.Size(s.Msg); err != nil || n != len(frame) {
			t.Errorf("%s: Size = %d, %v; the frame is %d bytes", name, n, err, len(frame))
		}
		got, err := wire.NewDecoder(bytes.NewReader(frame)).Decode()
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		want := s.Want
		if want == nil {
			want = s.Msg
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip\n got %#v\nwant %#v", name, got, want)
		}
		var again bytes.Buffer
		if err := wire.NewEncoder(&again).Encode(got); err != nil || !bytes.Equal(again.Bytes(), frame) {
			t.Errorf("%s: decoded value re-encodes differently (err %v)", name, err)
		}
	}
}

// Bytes compares got with the golden file at path, or rewrites the
// file under -update.
func Bytes(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v (run the test with -update after a deliberate format change)", err)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding changed\n got %x\nwant %x", path, got, want)
	}
}

// Retired checks that every frame under RetiredDir — a message as an
// earlier binary framed it, whose type or fields are gone — is refused
// by the Decoder with wire.ErrMalformed.
func Retired(t *testing.T) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(RetiredDir, "*.bin"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no retired frames under %s (%v)", RetiredDir, err)
	}
	for _, p := range paths {
		frame, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if msg, err := wire.NewDecoder(bytes.NewReader(frame)).Decode(); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s decodes to %#v, %v; want wire.ErrMalformed", p, msg, err)
		}
	}
}
