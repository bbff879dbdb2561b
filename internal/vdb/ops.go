package vdb

import (
	"errors"
	"fmt"
)

// ErrBadOp is returned for structurally invalid operations (empty
// keys, missing fields). Ops arrive from the network, so Apply
// validates rather than assumes.
var ErrBadOp = errors.New("vdb: invalid operation")

// KV is one key-value pair in a WriteOp.
type KV struct {
	Key string
	Val []byte
}

// ReadOp reads a set of keys. It models the paper's checkout/read
// request at the key-value level.
type ReadOp struct {
	Keys []string
}

// ReadResult is the answer entry for one key of a ReadOp.
type ReadResult struct {
	Key   string
	Found bool
	Val   []byte
}

// ReadAnswer is the answer type of ReadOp.
type ReadAnswer struct {
	Results []ReadResult
}

// Apply implements Op.
func (o *ReadOp) Apply(tx *Tx) (any, error) {
	if len(o.Keys) == 0 {
		return nil, fmt.Errorf("%w: read with no keys", ErrBadOp)
	}
	ans := ReadAnswer{Results: make([]ReadResult, len(o.Keys))}
	for i, k := range o.Keys {
		if k == "" {
			return nil, fmt.Errorf("%w: empty key", ErrBadOp)
		}
		v, ok, err := tx.Get(k)
		if err != nil {
			return nil, err
		}
		ans.Results[i] = ReadResult{Key: k, Found: ok, Val: append([]byte(nil), v...)}
	}
	return ans, nil
}

func (o *ReadOp) String() string { return fmt.Sprintf("read(%d keys)", len(o.Keys)) }

// WriteOp writes and/or deletes a set of keys. It models the paper's
// commit/update request at the key-value level. Puts are applied in
// order (last write to a key wins), then deletes.
type WriteOp struct {
	Puts    []KV
	Deletes []string
}

// WriteAnswer is the answer type of WriteOp.
type WriteAnswer struct {
	Put     int
	Deleted int // number of Deletes that existed
}

// Apply implements Op.
func (o *WriteOp) Apply(tx *Tx) (any, error) {
	if len(o.Puts) == 0 && len(o.Deletes) == 0 {
		return nil, fmt.Errorf("%w: empty write", ErrBadOp)
	}
	var ans WriteAnswer
	for _, kv := range o.Puts {
		if kv.Key == "" {
			return nil, fmt.Errorf("%w: empty key", ErrBadOp)
		}
		if err := tx.Put(kv.Key, kv.Val); err != nil {
			return nil, err
		}
		ans.Put++
	}
	for _, k := range o.Deletes {
		if k == "" {
			return nil, fmt.Errorf("%w: empty key", ErrBadOp)
		}
		found, err := tx.Delete(k)
		if err != nil {
			return nil, err
		}
		if found {
			ans.Deleted++
		}
	}
	return ans, nil
}

func (o *WriteOp) String() string {
	return fmt.Sprintf("write(%d puts, %d deletes)", len(o.Puts), len(o.Deletes))
}

// RangeOp reads up to Limit records with Lo <= key < Hi ("" Hi means
// unbounded; Limit 0 means no limit).
type RangeOp struct {
	Lo, Hi string
	Limit  int
}

// RangeAnswer is the answer type of RangeOp.
type RangeAnswer struct {
	Results []ReadResult
}

// Apply implements Op.
func (o *RangeOp) Apply(tx *Tx) (any, error) {
	if o.Limit < 0 {
		return nil, fmt.Errorf("%w: negative limit", ErrBadOp)
	}
	var ans RangeAnswer
	err := tx.Range(o.Lo, o.Hi, func(k, v []byte) bool {
		ans.Results = append(ans.Results, ReadResult{Key: string(k), Found: true, Val: append([]byte(nil), v...)})
		return o.Limit == 0 || len(ans.Results) < o.Limit
	})
	if err != nil {
		return nil, err
	}
	return ans, nil
}

func (o *RangeOp) String() string { return fmt.Sprintf("range[%q,%q)", o.Lo, o.Hi) }

// CASOp is a compare-and-swap: it writes New to Key only if the
// current value equals Expect (nil Expect = key must be absent). It
// exists to demonstrate the deterministic-transaction model the VO
// replay enables: the verifier re-executes the conditional logic, so
// the server cannot lie about whether the swap happened — the
// read-modify-write races of plain key-value outsourcing disappear.
type CASOp struct {
	Key    string
	Expect []byte // nil: require absence
	New    []byte
}

// CASAnswer is the answer type of CASOp.
type CASAnswer struct {
	Swapped bool
	// Actual is the value that defeated the swap (nil when absent or
	// when the swap succeeded).
	Actual []byte
}

// Apply implements Op.
func (o *CASOp) Apply(tx *Tx) (any, error) {
	if o.Key == "" {
		return nil, fmt.Errorf("%w: empty key", ErrBadOp)
	}
	cur, found, err := tx.Get(o.Key)
	if err != nil {
		return nil, err
	}
	match := (o.Expect == nil && !found) ||
		(o.Expect != nil && found && string(cur) == string(o.Expect))
	if !match {
		ans := CASAnswer{}
		if found {
			ans.Actual = append([]byte(nil), cur...)
		}
		return ans, nil
	}
	if err := tx.Put(o.Key, o.New); err != nil {
		return nil, err
	}
	return CASAnswer{Swapped: true}, nil
}

func (o *CASOp) String() string { return fmt.Sprintf("cas(%s)", o.Key) }

// NopOp performs no reads or writes; its application still increments
// ctr. The token-passing baseline uses it as the "signature of a null
// message" turn from Section 2.2.3, and sync-probe operations use it to
// observe the server state without touching data.
type NopOp struct{}

// NopAnswer is the answer type of NopOp.
type NopAnswer struct{}

// Apply implements Op.
func (o *NopOp) Apply(tx *Tx) (any, error) { return NopAnswer{}, nil }

func (o *NopOp) String() string { return "nop" }
