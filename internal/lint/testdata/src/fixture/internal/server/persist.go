package server

import (
	"bytes"
	"encoding/gob"
)

// EncodeSnapshot writes local state with gob. The path once sat on
// hashdiscipline's allow-list; there is none any more, so the import
// above is a finding.
func EncodeSnapshot(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}
