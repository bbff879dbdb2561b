// Package forensics implements the first item of the paper's future
// work (Section 6): "extend these protocols to detect exactly WHEN the
// fault occurred". Detection (Protocols I–III) tells the users *that*
// the server deviated; localization tells them *where* in the
// operation history — which bounds the rollback the paper's
// introduction worries about ("to limit the amount of rollback that
// might be necessary").
//
// Each user optionally keeps a bounded journal of the transitions it
// verified: (ctr, oldState, newState, user). Journals are bounded ring
// buffers — a deliberate, configurable relaxation of desideratum 5
// (constant state): capacity c buys localization of any fault within
// the last c transitions each user witnessed.
//
// After a detection, the users pool their journals (over the broadcast
// channel, or out of band like the detection itself) and run Locate,
// which reconstructs the transition graph the synchronization check
// rejected and reports:
//
//   - the earliest counter at which two *different* states claim the
//     same slot — the fork point;
//   - which users observed which branch;
//   - counters that were skipped entirely (dropped slots).
package forensics

import (
	"fmt"
	"sort"
	"strings"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/sig"
)

// Transition is one verified state transition as witnessed by a user:
// the server moved the database from Old to New, New carrying counter
// Ctr.
type Transition struct {
	Witness sig.UserID
	Ctr     uint64
	Old     digest.Digest
	New     digest.Digest
}

// Journal is a bounded ring buffer of the most recent transitions a
// user verified. The zero value is unusable; call NewJournal.
type Journal struct {
	user sig.UserID
	cap  int
	buf  []Transition
	next int
	full bool
}

// NewJournal creates a journal holding the most recent cap
// transitions. cap <= 0 disables journaling (Record is a no-op and
// Entries is empty).
func NewJournal(user sig.UserID, cap int) *Journal {
	j := &Journal{user: user, cap: cap}
	if cap > 0 {
		j.buf = make([]Transition, cap)
	}
	return j
}

// Record appends a witnessed transition, evicting the oldest when
// full.
func (j *Journal) Record(ctr uint64, old, new digest.Digest) {
	if j.cap <= 0 {
		return
	}
	j.buf[j.next] = Transition{Witness: j.user, Ctr: ctr, Old: old, New: new}
	j.next = (j.next + 1) % j.cap
	if j.next == 0 {
		j.full = true
	}
}

// Entries returns the recorded transitions, oldest first.
func (j *Journal) Entries() []Transition {
	if j.cap <= 0 {
		return nil
	}
	var out []Transition
	if j.full {
		out = append(out, j.buf[j.next:]...)
	}
	out = append(out, j.buf[:j.next]...)
	return out
}

// Branch is one maximal chain of states observed after the fork point,
// together with the users whose operations ran on it.
type Branch struct {
	Users []sig.UserID
	// Head is the earliest state of this branch at the fork counter.
	Head digest.Digest
	// Length is the number of journaled transitions on the branch.
	Length int
}

// Report is the outcome of fault localization.
type Report struct {
	// Located is false when the journals do not cover the fault (it
	// was evicted from every ring buffer); ForkCtr is then a lower
	// bound: the fault happened at or before the earliest journaled
	// counter.
	Located bool
	// ForkCtr is the earliest counter at which the journals contain
	// two or more distinct states — the first provably-forged slot.
	ForkCtr uint64
	// EarliestJournaled is the smallest counter any journal still
	// holds (the localization horizon).
	EarliestJournaled uint64
	// Branches describes the diverged chains from ForkCtr on.
	Branches []Branch
	// MissingCtrs are counters between the fork and the journals' end
	// for which no transition was witnessed at all (dropped slots).
	MissingCtrs []uint64
}

// String renders the report for logs and the CLI.
func (r *Report) String() string {
	var b strings.Builder
	if !r.Located {
		fmt.Fprintf(&b, "fault not covered by journals: it occurred at or before ctr %d (journal horizon)", r.EarliestJournaled)
		return b.String()
	}
	fmt.Fprintf(&b, "fault localized: first conflicting operation at ctr %d", r.ForkCtr)
	for i, br := range r.Branches {
		fmt.Fprintf(&b, "\n  branch %d (state %s..., %d journaled ops): users %v", i, br.Head.Short(), br.Length, br.Users)
	}
	if len(r.MissingCtrs) > 0 {
		fmt.Fprintf(&b, "\n  unwitnessed counters: %v", r.MissingCtrs)
	}
	return b.String()
}

// Locate pools the users' journals and finds the fork point: the
// earliest counter claimed by two or more distinct states. Honest
// histories have exactly one state per counter (that is precisely what
// the synchronization checks enforce), so any multiplicity is proof of
// where the server's histories diverged.
func Locate(journals []*Journal) *Report {
	byCtr := map[uint64]map[digest.Digest][]Transition{}
	var minCtr, maxCtr uint64
	first := true
	for _, j := range journals {
		for _, tr := range j.Entries() {
			m := byCtr[tr.Ctr]
			if m == nil {
				m = map[digest.Digest][]Transition{}
				byCtr[tr.Ctr] = m
			}
			m[tr.New] = append(m[tr.New], tr)
			if first || tr.Ctr < minCtr {
				minCtr = tr.Ctr
			}
			if first || tr.Ctr > maxCtr {
				maxCtr = tr.Ctr
			}
			first = false
		}
	}
	rep := &Report{EarliestJournaled: minCtr}
	if len(byCtr) == 0 {
		return rep
	}

	// Find the earliest counter with two or more distinct new-states.
	ctrs := make([]uint64, 0, len(byCtr))
	for c := range byCtr {
		ctrs = append(ctrs, c)
	}
	sort.Slice(ctrs, func(i, k int) bool { return ctrs[i] < ctrs[k] })

	forkIdx := -1
	for i, c := range ctrs {
		if len(byCtr[c]) > 1 {
			forkIdx = i
			break
		}
	}
	if forkIdx == -1 {
		// No conflicting slot in the journals: either the fault
		// predates the horizon, or it is a dropped slot (a gap).
		for i := 1; i < len(ctrs); i++ {
			for missing := ctrs[i-1] + 1; missing < ctrs[i]; missing++ {
				rep.MissingCtrs = append(rep.MissingCtrs, missing)
			}
		}
		return rep
	}
	forkCtr := ctrs[forkIdx]
	rep.Located = true
	rep.ForkCtr = forkCtr

	// Assign every post-fork transition to a branch by following the
	// old→new chain links from each conflicting head state.
	heads := make([]digest.Digest, 0, len(byCtr[forkCtr]))
	for st := range byCtr[forkCtr] {
		heads = append(heads, st)
	}
	sort.Slice(heads, func(i, k int) bool { return heads[i].String() < heads[k].String() })

	for _, head := range heads {
		br := Branch{Head: head}
		users := map[sig.UserID]bool{}
		frontier := map[digest.Digest]bool{head: true}
		for _, c := range ctrs[forkIdx:] {
			for st, trs := range byCtr[c] {
				for _, tr := range trs {
					if frontier[tr.Old] || (c == forkCtr && st == head) {
						users[tr.Witness] = true
						br.Length++
						frontier[tr.New] = true
					}
				}
			}
		}
		for u := range users {
			br.Users = append(br.Users, u)
		}
		sort.Slice(br.Users, func(i, k int) bool { return br.Users[i] < br.Users[k] })
		rep.Branches = append(rep.Branches, br)
	}

	// Gaps after the fork are also evidence (dropped slots).
	for i := forkIdx + 1; i < len(ctrs); i++ {
		for missing := ctrs[i-1] + 1; missing < ctrs[i]; missing++ {
			rep.MissingCtrs = append(rep.MissingCtrs, missing)
		}
	}
	return rep
}
