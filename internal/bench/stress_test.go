package bench

import (
	"sort"
	"testing"
)

// TestStressConcurrentClients hammers every verified protocol with 16
// concurrent TCP clients (run it with -race: it is the pipelined hot
// path's concurrency regression test). Two properties must hold:
//
//  1. Every response verifies — each e13 client runs the full user
//     state machine and do() fails on any proof that does not check
//     out, so e13Run surfacing no error is the assertion.
//  2. The operation counters the server presented, pooled across all
//     clients, form a gap-free permutation: the ordered section
//     admitted each op exactly once, with no lost or duplicated slot,
//     no matter how decode/encode stages interleave around it.
//
// The trusted floor is excluded: it has no proofs to verify and its
// handler does not report counters.
func TestStressConcurrentClients(t *testing.T) {
	const (
		clients  = 16
		totalOps = 320
	)
	for _, s := range e13Schemes() {
		if s.name == "trusted" {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			_, perClient, err := e13Run(s, 200, clients, totalOps)
			if err != nil {
				t.Fatal(err)
			}
			var ctrs []uint64
			for _, c := range perClient {
				ctrs = append(ctrs, c...)
			}
			want := clients * (totalOps/clients + e13Warmup)
			if len(ctrs) != want {
				t.Fatalf("collected %d ctrs, want %d", len(ctrs), want)
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
