// Package codec exercises errdrop: discarded errors from the
// Sign/Verify/Finish/Checkpoint/Encode/Decode surface.
package codec

import (
	"bytes"
	"encoding/gob"
)

// Checkpointer is a stand-in for the persistence layer.
type Checkpointer struct{}

// Checkpoint flushes state and can fail.
func (c *Checkpointer) Checkpoint() error { return nil }

// DropEncode throws the codec error away entirely.
func DropEncode(v int) {
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode(v)
}

// BlankCheckpoint assigns the error to the blank identifier.
func BlankCheckpoint(c *Checkpointer) {
	_ = c.Checkpoint()
}

// DeferDecode loses the error in a defer.
func DeferDecode(buf *bytes.Buffer, v *int) {
	dec := gob.NewDecoder(buf)
	defer dec.Decode(v)
}

// ParallelBlank drops the encode error in a parallel assignment: the
// blank slot lines up with a single-result error call.
func ParallelBlank(v int) int {
	var buf bytes.Buffer
	var n int
	_, n = gob.NewEncoder(&buf).Encode(v), v
	return n
}

// DeferBound loses the error of a method value bound to a variable
// and then deferred.
func DeferBound(buf *bytes.Buffer, v *int) {
	dec := gob.NewDecoder(buf)
	f := dec.Decode
	defer f(v)
}

// Checked handles the error and must not be reported.
func Checked(v int) error {
	var buf bytes.Buffer
	return gob.NewEncoder(&buf).Encode(v)
}

// Handled also checks its error; the directive above it therefore
// suppresses nothing and is deadignore's pinned stale case.
func Handled(v int) error {
	var buf bytes.Buffer
	//lint:ignore errdrop fixture: stale — the error below is handled, not dropped
	return gob.NewEncoder(&buf).Encode(v)
}
