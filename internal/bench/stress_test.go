package bench

import (
	"sort"
	"testing"
)

// TestStressConcurrentClients hammers every verified protocol with 16
// concurrent TCP clients (run it with -race: it is the pipelined hot
// path's concurrency regression test). Two properties must hold:
//
//  1. Every response verifies — each scheme client runs the full user
//     state machine and fails on any proof that does not check out,
//     so runFleet surfacing no error is the assertion.
//  2. The operation counters the server presented, pooled across all
//     clients, form a gap-free permutation: the ordered section
//     admitted each op exactly once, with no lost or duplicated slot,
//     no matter how decode/encode stages interleave around it.
func TestStressConcurrentClients(t *testing.T) {
	const (
		clients  = 16
		totalOps = 320
	)
	for _, s := range schemes() {
		t.Run(s.name, func(t *testing.T) {
			perClient, err := runFleet(s, 200, clients, totalOps)
			if err != nil {
				t.Fatal(err)
			}
			var ctrs []uint64
			for _, c := range perClient {
				ctrs = append(ctrs, c...)
			}
			if len(ctrs) != totalOps {
				t.Fatalf("collected %d ctrs, want %d", len(ctrs), totalOps)
			}
			sort.Slice(ctrs, func(i, j int) bool { return ctrs[i] < ctrs[j] })
			for i := 1; i < len(ctrs); i++ {
				if ctrs[i] != ctrs[i-1]+1 {
					t.Fatalf("ctr sequence broken at %d: %d then %d",
						i, ctrs[i-1], ctrs[i])
				}
			}
		})
	}
}
