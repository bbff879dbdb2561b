// Package wire mirrors the real codec boundary for verifyflow:
// everything a Decoder yields arrived from the peer and is untrusted
// until verified.
package wire

import (
	"encoding/gob" //lint:ignore hashdiscipline fixture: stands in for the real codec; verifyflow only needs a Decoder
	"io"
)

// Decoder decodes peer messages from a stream.
type Decoder struct{ dec *gob.Decoder }

// NewDecoder wraps a stream with the message codec.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{dec: gob.NewDecoder(r)} }

// Decode reads the next message from the peer.
func (d *Decoder) Decode() (any, error) {
	var v any
	if err := d.dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}
