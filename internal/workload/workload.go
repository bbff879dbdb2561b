// Package workload generates the operation traces the experiments
// replay: generic CVS-style workloads (Zipf-skewed file popularity,
// mixed checkouts and commits, users going offline) and the
// *partitionable* workload family of Section 3.1 — the US/China
// scenario of Figure 1 in which a causal dependency crosses two user
// groups that are never active at the same time.
package workload

import (
	"fmt"
	"math/rand"

	"trustedcvs/internal/sig"
)

// Kind is the CVS operation class of one trace event. The paper's
// model has exactly two: checkout (read) and commit (update).
type Kind int

const (
	// Checkout reads files.
	Checkout Kind = iota
	// Commit updates files.
	Commit
)

func (k Kind) String() string {
	if k == Commit {
		return "commit"
	}
	return "checkout"
}

// Event is one user operation in a trace.
type Event struct {
	// Round is the global-clock round at which the user issues the
	// operation. Rounds are non-decreasing across the trace.
	Round int
	User  sig.UserID
	Kind  Kind
	Files []string
}

// Trace is an ordered sequence of events over a fixed user population
// and file set.
type Trace struct {
	Users  int
	Files  []string
	Events []Event
}

// Config parameterizes the generic CVS workload generator.
type Config struct {
	Users int
	Files int
	Ops   int
	// WriteRatio is the fraction of commits (CVS workloads are
	// read-heavy; a typical value is 0.2-0.4).
	WriteRatio float64
	// FilesPerOp is the maximum number of files touched by one
	// operation (uniform in [1, FilesPerOp]).
	FilesPerOp int
	// ZipfS is the Zipf skew of file popularity (>1; 0 disables skew).
	ZipfS float64
	// IdleProb is the chance that a round passes with no operation
	// (stretches the trace in time).
	IdleProb float64
	// OfflineSpan, when positive, sends each user offline for spans of
	// this many rounds with probability OfflineProb after each of its
	// operations — the paper's "users sleep for arbitrarily long".
	OfflineSpan int
	OfflineProb float64
	Seed        int64
}

// Generate produces a CVS trace from cfg. Generation is fully
// deterministic in cfg.Seed.
func Generate(cfg Config) *Trace {
	if cfg.Users <= 0 || cfg.Files <= 0 || cfg.Ops < 0 {
		panic("workload: Users and Files must be positive")
	}
	if cfg.FilesPerOp <= 0 {
		cfg.FilesPerOp = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	files := make([]string, cfg.Files)
	for i := range files {
		files[i] = fmt.Sprintf("src/file%04d.c", i)
	}
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Files-1))
	}
	pickFile := func() string {
		if zipf != nil {
			return files[zipf.Uint64()]
		}
		return files[rng.Intn(cfg.Files)]
	}

	tr := &Trace{Users: cfg.Users, Files: files}
	offlineUntil := make([]int, cfg.Users)
	round := 0
	for len(tr.Events) < cfg.Ops {
		round++
		if rng.Float64() < cfg.IdleProb {
			continue
		}
		// Pick an online user.
		candidates := make([]int, 0, cfg.Users)
		for u := 0; u < cfg.Users; u++ {
			if offlineUntil[u] <= round {
				candidates = append(candidates, u)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		u := candidates[rng.Intn(len(candidates))]

		kind := Checkout
		if rng.Float64() < cfg.WriteRatio {
			kind = Commit
		}
		n := 1 + rng.Intn(cfg.FilesPerOp)
		seen := make(map[string]bool, n)
		var fs []string
		for len(fs) < n {
			f := pickFile()
			if !seen[f] {
				seen[f] = true
				fs = append(fs, f)
			}
		}
		tr.Events = append(tr.Events, Event{Round: round, User: sig.UserID(u), Kind: kind, Files: fs})

		if cfg.OfflineSpan > 0 && rng.Float64() < cfg.OfflineProb {
			offlineUntil[u] = round + cfg.OfflineSpan
		}
	}
	return tr
}

// PartitionInfo describes the structure of a partitionable trace for
// the experiment harness.
type PartitionInfo struct {
	// GroupB is the user set the adversary serves from the fork.
	GroupB map[sig.UserID]bool
	// T1Op is the 1-based operation index of the group-A commit (t1)
	// that group B must never learn about. The adversary's fork
	// snapshot must be taken immediately before this operation
	// (adversary.Config.TriggerOp = T1Op).
	T1Op uint64
	// T2Op is the operation index of the causally dependent group-B
	// read (t2), the first operation served from the fork.
	T2Op uint64
	// PostForkOpsByOneUser is how many operations the busiest group-B
	// user performs after t1 (k+1 in the paper's definition).
	PostForkOpsByOneUser int
}

// Partitionable generates the Figure 1 workload: group A (the US
// programmer) commits Common.h (transaction t1) and goes offline;
// group B (the Chinese programmer) then issues a causally dependent
// commit t2 and k+1 further operations, with group A silent
// throughout. Under a partitioning server nothing group B sees ever
// reveals t1.
func Partitionable(usersA, usersB int, k int, seed int64) (*Trace, PartitionInfo) {
	if usersA <= 0 || usersB <= 0 || k < 0 {
		panic("workload: bad partitionable parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	users := usersA + usersB
	files := []string{"Common.h", "us/main.c", "cn/driver.c", "cn/util.c"}
	tr := &Trace{Users: users, Files: files}
	info := PartitionInfo{GroupB: make(map[sig.UserID]bool)}
	for u := usersA; u < users; u++ {
		info.GroupB[sig.UserID(u)] = true
	}

	round := 0
	add := func(u int, kind Kind, fs ...string) {
		round++
		tr.Events = append(tr.Events, Event{Round: round, User: sig.UserID(u), Kind: kind, Files: fs})
	}

	// Warm-up: everyone touches the repository (common prefix).
	for u := 0; u < users; u++ {
		add(u, Commit, files[1+rng.Intn(len(files)-1)])
	}
	// t1: a group-A user commits Common.h, then group A goes offline.
	add(0, Commit, "Common.h")
	info.T1Op = uint64(len(tr.Events))

	// t2: a group-B user reads Common.h (causal dependency) — the
	// first operation the adversary serves from its pre-t1 fork.
	bUser := usersA
	add(bUser, Checkout, "Common.h")
	info.T2Op = uint64(len(tr.Events))

	// k+1 further operations by that same group-B user.
	for i := 0; i <= k; i++ {
		if rng.Intn(2) == 0 {
			add(bUser, Commit, "cn/driver.c")
		} else {
			add(bUser, Checkout, "cn/util.c")
		}
	}
	info.PostForkOpsByOneUser = k + 1
	return tr, info
}

// EveryUserTwicePerEpoch generates the Protocol III workload: epochs
// of epochLen rounds, every user performing exactly two operations per
// epoch at randomized offsets — never requiring two users online
// simultaneously.
func EveryUserTwicePerEpoch(users, epochs, epochLen int, seed int64) *Trace {
	if epochLen < 2*users {
		panic("workload: epoch too short for two ops per user")
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Users: users, Files: []string{"shared.c", "local.c"}}
	for e := 0; e < epochs; e++ {
		base := e * epochLen
		// Two distinct sub-slots per user, serialized so no two users
		// overlap: shuffle (user, slot) pairs across the epoch.
		type slot struct{ u, j int }
		var slots []slot
		for u := 0; u < users; u++ {
			slots = append(slots, slot{u, 0}, slot{u, 1})
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		step := epochLen / len(slots)
		for i, s := range slots {
			kind := Checkout
			if rng.Intn(2) == 0 {
				kind = Commit
			}
			f := tr.Files[rng.Intn(len(tr.Files))]
			tr.Events = append(tr.Events, Event{
				Round: base + i*step + 1,
				User:  sig.UserID(s.u),
				Kind:  kind,
				Files: []string{f},
			})
		}
	}
	return tr
}
