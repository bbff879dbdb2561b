package main

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"strings"

	"trustedcvs"
)

// users is the closed-loop population: one goroutine and one
// connection each. The box has two cores shared by generator and
// server, so more users would measure the scheduler.
const users = 2

// syncEvery is k, the Protocol II synchronization period.
const syncEvery = 16

// sizing fixes how much data a round holds and how many operations it
// issues. Rounds are sized by count, not duration, so operation counts,
// wire bytes and heap growth repeat exactly for one seed.
type sizing struct {
	keys  int // preloaded key-value records
	files int // preloaded CVS files
	lines int // lines per CVS file (about 50 bytes each)
	ops   int // timed operations per user per round
	warm  int // untimed warm-up operations per user
	probe int // operations the stage probes replay
}

type kind int

const (
	kvWrite kind = iota
	kvRead
	cvsMixed
)

// workload is one closed-loop traffic mix. epoch > 0 switches the
// clients to epoch-audit mode with that epoch length; wal additionally
// journals every obligation under a fresh directory.
type workload struct {
	name  string
	kind  kind
	epoch uint64
	wal   bool
	full  sizing
}

// The per-round counts keep the issue's 150k:180k:20k:50k proportions
// at a size one round finishes in about three seconds; a run repeats
// rounds until --seconds of timed window have accumulated and reports
// medians over the rounds.
var workloads = []workload{
	{name: "kv-write", kind: kvWrite,
		full: sizing{keys: 100000, ops: 15000, warm: 750, probe: 4000}},
	{name: "kv-read", kind: kvRead,
		full: sizing{keys: 100000, ops: 18000, warm: 900, probe: 4000}},
	{name: "cvs-mixed", kind: cvsMixed,
		full: sizing{files: 200, lines: 100, ops: 10000, warm: 500, probe: 2000}},
	{name: "kv-write-epoch-wal", kind: kvWrite, epoch: 256, wal: true,
		full: sizing{keys: 100000, ops: 5000, warm: 250, probe: 4000}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a sizing by div, keeping every count usable.
func (s sizing) scaled(div int) sizing {
	sh := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if n /= div; n < floor {
			n = floor
		}
		return n
	}
	return sizing{
		keys: sh(s.keys, 64), files: sh(s.files, 8), lines: s.lines,
		ops: sh(s.ops, 48), warm: sh(s.warm, 4), probe: sh(s.probe, 32),
	}
}

type opKind uint8

const (
	opWrite opKind = iota
	opRead
	opCommit
	opCheckout
)

// op is one pre-generated user operation. idx is a key index or a file
// index; val is a write's value; edits are a commit's line
// replacements.
type op struct {
	kind  opKind
	idx   int
	val   []byte
	edits []edit
}

type edit struct {
	line int
	text string
}

// stream is everything a round feeds the system, generated from the
// seed before any clock starts. users[u] holds user u's warm-up
// operations followed by its timed ones.
type stream struct {
	preload [][]byte   // value of key i (key-value workloads)
	files   [][]string // initial lines of file i (CVS workload)
	users   [users][]op
}

func keyName(i int) string  { return fmt.Sprintf("k%06d", i) }
func fileName(i int) string { return fmt.Sprintf("src/f%03d.txt", i) }

func randValue(r *rand.Rand) []byte {
	v := make([]byte, 20+r.Intn(21))
	r.Read(v)
	return v
}

const lineAlphabet = "abcdefghijklmnopqrstuvwxyz      "

func randLine(r *rand.Rand) string {
	b := make([]byte, 40+r.Intn(20))
	for i := range b {
		b[i] = lineAlphabet[r.Intn(len(lineAlphabet))]
	}
	return string(b)
}

func joinLines(lines []string) []byte {
	return []byte(strings.Join(lines, "\n") + "\n")
}

// zipfS is the skew of every popularity draw.
const zipfS = 1.1

// spread maps a Zipf rank to an index so that hot items are scattered
// over the key space instead of sharing one leaf.
func spread(rank uint64, n int) int {
	return int((rank * 7919) % uint64(n))
}

func generate(w workload, sz sizing, seed int64) *stream {
	st := &stream{}
	r := rand.New(rand.NewSource(seed))
	switch w.kind {
	case kvWrite, kvRead:
		st.preload = make([][]byte, sz.keys)
		for i := range st.preload {
			st.preload[i] = randValue(r)
		}
	case cvsMixed:
		st.files = make([][]string, sz.files)
		for i := range st.files {
			lines := make([]string, sz.lines)
			for j := range lines {
				lines[j] = randLine(r)
			}
			st.files[i] = lines
		}
	}
	for u := 0; u < users; u++ {
		ur := rand.New(rand.NewSource(seed*1000003 + int64(u) + 1))
		ops := make([]op, sz.warm+sz.ops)
		switch w.kind {
		case kvWrite:
			// Each user writes its own half of the key space, so the
			// read-back model needs no cross-user ordering.
			half := sz.keys / users
			for i := range ops {
				ops[i] = op{kind: opWrite, idx: u*half + ur.Intn(half), val: randValue(ur)}
			}
		case kvRead:
			z := rand.NewZipf(ur, zipfS, 1, uint64(sz.keys-1))
			for i := range ops {
				ops[i] = op{kind: opRead, idx: spread(z.Uint64(), sz.keys)}
			}
		case cvsMixed:
			// File i belongs to user i%users: a user commits only its
			// own files and checks out any.
			own := sz.files / users
			zAll := rand.NewZipf(ur, zipfS, 1, uint64(sz.files-1))
			zOwn := rand.NewZipf(ur, zipfS, 1, uint64(own-1))
			nEdit := sz.lines / 20
			if nEdit < 1 {
				nEdit = 1
			}
			for i := range ops {
				// Exactly three operations in ten are commits, at fixed
				// positions offset per user, so the mix does not wander
				// with the seed.
				if p := (i + 5*u) % 10; p != 0 && p != 3 && p != 7 {
					ops[i] = op{kind: opCheckout, idx: int(zAll.Uint64())}
					continue
				}
				o := op{kind: opCommit, idx: int(zOwn.Uint64())*users + u, edits: make([]edit, nEdit)}
				for j := range o.edits {
					o.edits[j] = edit{line: ur.Intn(sz.lines), text: randLine(ur)}
				}
				ops[i] = o
			}
		}
		st.users[u] = ops
	}
	return st
}

func writeOp(key int, val []byte) trustedcvs.Op {
	return &trustedcvs.WriteOp{Puts: []trustedcvs.KV{{Key: keyName(key), Val: val}}}
}

func readOp(key int) trustedcvs.Op {
	return &trustedcvs.ReadOp{Keys: []string{keyName(key)}}
}

// cvsModel is the benchmark's own account of the repository: the
// current lines of every file (mutated only by the file's owner) and
// the fingerprint of every content an owner ever committed.
type cvsModel struct {
	lines     [][]string
	committed []map[uint64]struct{}
	hseed     maphash.Seed
}

func newCVSModel(st *stream) *cvsModel {
	m := &cvsModel{
		lines:     make([][]string, len(st.files)),
		committed: make([]map[uint64]struct{}, len(st.files)),
		hseed:     maphash.MakeSeed(),
	}
	for i, l := range st.files {
		m.lines[i] = append([]string(nil), l...)
		m.committed[i] = make(map[uint64]struct{})
	}
	return m
}

func (m *cvsModel) fingerprint(content []byte) uint64 {
	return maphash.Bytes(m.hseed, content)
}

// content returns file i's current text and records it as committed.
func (m *cvsModel) content(i int) []byte {
	c := joinLines(m.lines[i])
	m.committed[i][m.fingerprint(c)] = struct{}{}
	return c
}

// commit applies a commit's edits to the model and returns the new
// text the owner commits.
func (m *cvsModel) commit(o op) []byte {
	for _, e := range o.edits {
		m.lines[o.idx][e.line] = e.text
	}
	return m.content(o.idx)
}
