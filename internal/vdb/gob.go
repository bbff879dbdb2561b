package vdb

import "encoding/gob"

// Ops travel inside interface-typed fields (Op), so their concrete
// types must be registered with gob. Each package registers its own;
// internal/cvs does the same for the CVS ops. Answers do not travel as
// gob values at all (see answer.go).
func init() {
	gob.Register(&ReadOp{})
	gob.Register(&WriteOp{})
	gob.Register(&RangeOp{})
	gob.Register(&NopOp{})
	gob.Register(&CASOp{})
	gob.Register(&CrossOp{})
}
