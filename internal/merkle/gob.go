package merkle

import "encoding/gob"

// A VO usually travels as a concrete-typed field of a protocol
// response, but the bench harness also measures it as a standalone
// payload, so the type is registered for interface transport too. Gob
// carries it as the opaque bytes of MarshalBinary (vobinary.go).
func init() {
	gob.Register(&VO{})
}
