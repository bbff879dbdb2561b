package wire_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"trustedcvs/internal/wire"
	"trustedcvs/internal/wire/wiretest"
)

// TestEveryTagHasAGolden walks the tag table — this test binary links
// every package that registers messages — against the golden frames
// those packages check in (wiretest.Golden, run by each over its own
// types). It fails if a registered type has no golden frame, if a
// golden frame decodes to a type other than the one its file name
// claims, if one does not re-encode to itself, or if DESIGN.md's tag
// table lacks the row.
func TestEveryTagHasAGolden(t *testing.T) {
	paths, frames := goldenFrames(t, wiretest.Dir)
	covered := make(map[reflect.Type]bool)
	for i, frame := range frames {
		base := filepath.Base(paths[i])
		msg, err := decodeFrame(frame)
		if err != nil {
			t.Errorf("%s: %v", paths[i], err)
			continue
		}
		if msg == nil {
			t.Errorf("%s: decodes to nil", paths[i])
			continue
		}
		if stem := wiretest.Name(msg, ""); base != stem+".bin" && !strings.HasPrefix(base, stem+"-") {
			t.Errorf("%s holds a %s", paths[i], stem)
		}
		if again := encodeFrame(t, msg); !bytes.Equal(again, frame) {
			t.Errorf("%s re-encodes differently:\n got %x\nwant %x", paths[i], again, frame)
		}
		covered[reflect.TypeOf(msg)] = true
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	types := make(map[reflect.Type]byte)
	for _, reg := range wire.Registered() {
		if row := fmt.Sprintf("| %d | `%v` |", reg.Tag, reg.Type); !bytes.Contains(design, []byte(row)) {
			t.Errorf("DESIGN.md \"Encodings\" has no tag-table row %q", row)
		}
		if prev, dup := types[reg.Type]; dup {
			t.Errorf("%v is registered under tags %d and %d", reg.Type, prev, reg.Tag)
		}
		types[reg.Type] = reg.Tag
		if !covered[reg.Type] {
			t.Errorf("tag %d (%v) has no golden frame under any ../*/%s", reg.Tag, reg.Type, wiretest.Dir)
		}
	}
	if len(types) < 45 {
		t.Errorf("only %d types in the tag table: is a registering package no longer linked into this test?", len(types))
	}
}
