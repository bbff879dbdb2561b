package server

import (
	"bytes"
	"encoding/gob"
)

// EncodeSnapshot is in the gob remainder: this file's path is on
// hashdiscipline's list, so the import above is silent.
func EncodeSnapshot(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}
