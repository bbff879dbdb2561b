package binenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -7)
	b = binary.AppendVarint(b, math.MinInt64)
	b = AppendBool(b, true)
	b = AppendBytes(b, []byte("val"))
	b = AppendBytes(b, nil)
	b = AppendString(b, "key")
	b = append(b, 0xAB)

	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	val := r.Bytes()
	if string(val) != "val" {
		t.Errorf("Bytes = %q", val)
	}
	val[0] = 'X' // a copy: the input must not change
	if r.Bytes() != nil {
		t.Error("empty Bytes is not nil")
	}
	if s := r.String(); s != "key" {
		t.Errorf("String = %q", s)
	}
	if c := r.Byte(); c != 0xAB {
		t.Errorf("Byte = %#x", c)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if bytes.Contains(b, []byte("Xal")) {
		t.Error("Bytes aliased the input")
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 32, math.MaxUint64} {
		if got, want := UvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestRejects(t *testing.T) {
	cases := map[string]func(*Reader){
		"truncated byte":     func(r *Reader) { r.Byte(); r.Byte() },
		"boolean 2":          func(r *Reader) { r.Bool() },
		"non-minimal":        func(r *Reader) { r.Uvarint() },
		"unterminated":       func(r *Reader) { r.Uvarint() },
		"overflowing":        func(r *Reader) { r.Uvarint() },
		"count beyond input": func(r *Reader) { r.Count(1) },
		"count times min":    func(r *Reader) { r.Count(3) },
		"short view":         func(r *Reader) { r.View(4) },
		"short bytes":        func(r *Reader) { _ = r.Bytes() },
		"trailing":           func(r *Reader) { r.Byte() },
	}
	inputs := map[string][]byte{
		"truncated byte":     {1},
		"boolean 2":          {2},
		"non-minimal":        {0x80, 0x00},
		"unterminated":       {0xff, 0xff},
		"overflowing":        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"count beyond input": {3, 0, 0},
		"count times min":    {2, 0, 0, 0, 0, 0},
		"short view":         {1, 2, 3},
		"short bytes":        {5, 'a', 'b'},
		"trailing":           {1, 2},
	}
	for name, read := range cases {
		r := NewReader(inputs[name])
		read(r)
		if err := r.Close(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Close = %v, want ErrMalformed", name, err)
		}
	}
	// The first failure sticks and later reads are inert.
	r := NewReader([]byte{2, 7})
	r.Bool()
	first := r.Err()
	if r.Byte() != 0 || r.Uvarint() != 0 || r.String() != "" || r.Err() != first {
		t.Error("reads after a failure are not inert")
	}
}
