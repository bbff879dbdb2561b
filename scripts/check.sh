#!/bin/sh
# check.sh — the repo's full verification gate. Run it before every
# commit: formatting, vet, build, grep gates on imports, on the one
# untyped answer decoder, on the fresh-memory verifier, on the one
# owner of the consistent cut (session-table freeze and restore) and
# on concrete-type assertions of a transport.Caller (the trust
# boundary itself is a type —
# vdb.Verified, rcs.Checked, audit.Queued — so the compiler holds it),
# the import rules (hashing only through internal/digest, no
# encoding/gob, no math/rand in the signature, protocol and wire
# packages, no clock in the verification paths), the repo's own
# invariant analyzer (tcvs-lint's eight passes: lock narrowness,
# checked errors, panic-free handlers, sleep-free retries, lockorder's
# static lock-acquisition cycle check, fsync discipline, bounded
# queues and deadignore's stale-suppression sweep; -time prints
# per-pass wall-clock so a regressing pass is visible in CI logs), the
# whole test suite under the race detector (the pipelined server hot path
# and the fault/recovery suite — kill/restart, reconnect, resume — are
# only trustworthy race-clean), and a fuzz smoke over the seven
# untrusted-input surfaces (wire frames, verification objects and
# claimed answers — the two hand-written binary decoders — diffs,
# snapshot files, register files and journal segments read back from
# disk).
set -eux
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: needs formatting: $fmt" >&2
    exit 1
fi

# Litter: a build output committed by accident is either something
# .gitignore names or something big.
ignored=$(git ls-files -ci --exclude-standard)
big=$(git ls-files -z | xargs -0 -r sh -c 'find "$@" -maxdepth 0 -size +1048576c' sh)
if [ -n "$ignored$big" ]; then
    echo "tracked files that .gitignore matches or that exceed 1 MB: $ignored $big" >&2
    exit 1
fi
# Timings belong in benchmark/: internal/bench asserts claims and keeps
# no recorded runs.
records=$(git ls-files 'BENCH_E*.json')
if [ -n "$records" ]; then
    echo "experiment records are retired; measure in benchmark/ instead: $records" >&2
    exit 1
fi

go vet ./...
go build ./...
# Production binaries and the library must not link the test-support
# packages: the fault-injection harness (the filesystem seam lives in
# internal/durable) and the golden-bytes helper.
if go list -deps . ./cmd/tcvs ./cmd/tcvs-server ./cmd/tcvs-attack | grep -e internal/fault -e internal/wire/wiretest; then
    echo "production code imports a test-support package" >&2
    exit 1
fi
# The protocol executor is pure: it reaches the server and its peers
# only through the ports its caller plugs in, so it links no network,
# transport, hub, auditor or witness code, and it imports no lock or
# clock of its own (vdb brings sync in underneath, so the second rule
# looks at direct imports only).
if go list -deps ./internal/session | grep -x -e net -e 'trustedcvs/internal/transport' -e 'trustedcvs/internal/broadcast' -e 'trustedcvs/internal/audit' -e 'trustedcvs/internal/witness'; then
    echo "internal/session depends on I/O or a live-mode package" >&2
    exit 1
fi
if go list -f '{{join .Imports "\n"}}' ./internal/session | grep -x -e sync -e time; then
    echo "internal/session imports sync or time" >&2
    exit 1
fi
# One place builds a witness mesh: the publisher, the per-client
# quorum check and the gossip peering are wired by internal/witness
# (Mesh, CheckFor), the deployment assembler and the server binary's
# remote witnesses, and nowhere else outside tests.
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
    -e 'witness\.NewPublisher' -e 'witness\.NewCheck' -e '\.AddPeer(' . |
    grep -v -e '^\./internal/witness/' -e '^\./internal/deploy/' -e '^\./cmd/tcvs-server/'; then
    echo "a witness mesh is built outside internal/witness, internal/deploy and cmd/tcvs-server" >&2
    exit 1
fi
# A server answer reaches a caller only out of a value that vouches for
# it: a protocol user's vdb.Verified, or in epoch-audit mode the
# audit.Queued that Submit returns once the obligation is queued. The
# untyped decoder stays exported for the trusted-server floor in
# benchmark/, so it may be called only there, in internal/vdb (which
# the typed values decode through) and in internal/audit.
if grep -rnw --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build -e 'DecodeAnswer' . |
    grep -v -e '^\./internal/vdb/' -e '^\./internal/audit/' -e '^\./benchmark/'; then
    echo "vdb.DecodeAnswer is called outside internal/vdb, internal/audit and benchmark/" >&2
    exit 1
fi
# Every protocol user verifies in a vdb.Verifier it reuses. The
# package-level VerifyDerive verifies in fresh memory and is the
# reference that memory is judged against, so outside tests it is
# called only in internal/vdb and by benchmark/'s per-layer probe.
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build -e 'vdb\.VerifyDerive(' . |
    grep -v -e '^\./internal/vdb/' -e '^\./benchmark/'; then
    echo "the fresh-memory vdb.VerifyDerive is called outside internal/vdb and benchmark/" >&2
    exit 1
fi
# The consistent cut has one owner: a checkpoint freezes the session
# table, and a restore rebuilds it, inside internal/server
# (CheckpointP2, RestoreP2 and the server.Durable record built on
# them), over the table's own package. Nothing else outside tests
# freezes or restores a session table.
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
    -e '\.Freeze(' -e 'RestoreSessions(' . |
    grep -v -e '^\./internal/transport/' -e '^\./internal/server/'; then
    echo "a session table is frozen or restored outside internal/transport and internal/server" >&2
    exit 1
fi
# A transport.Caller is used through its two methods and nothing more:
# what stands behind it (one address, a dial function that fails over,
# an in-process handler) is decided where it is built, and a detection
# stops a convicted client without reaching into its connection. So
# nothing outside internal/transport asserts or switches a Caller to a
# concrete *transport. type.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
    -e '\.\(\*transport\.' -e '^\s*case .*\*transport\.' . |
    grep -v -e '^\./internal/transport/'; then
    echo "a transport.Caller is asserted to a concrete *transport. type outside internal/transport" >&2
    exit 1
fi
# Import rules (BEGIN deps rules). What a package may import is a
# `go list` question, so these conventions are stated here rather than
# in tcvs-lint. The first two hold over the root module and the nested
# benchmark module; the rest name root-module packages only.
#
# Hashing goes through internal/digest's domain-separated helpers: a
# raw sha256.Sum256 anywhere else bypasses domain separation and
# silently breaks the VO algebra Protocols II/III build their XOR
# registers on. encoding/gob is retired: nothing sent, journaled or
# stored goes through it (internal/wire's tag table and internal/binenc
# own every encoding), and a gob decoder over a peer's bytes hands the
# peer an unbounded allocation, so no package may link it.
for mod in . benchmark; do
    if go -C "$mod" list -f '{{.ImportPath}} {{join .Imports " "}}' ./... |
        grep -E ' crypto/sha(256|512)( |$)' | grep -v '^trustedcvs/internal/digest '; then
        echo "a package of $mod other than internal/digest imports crypto/sha256 or crypto/sha512" >&2
        exit 1
    fi
    if go -C "$mod" list -deps ./... | grep -x encoding/gob; then
        echo "a package of $mod depends on encoding/gob" >&2
        exit 1
    fi
done
# Key material and protocol nonces come from crypto/rand: the protocol
# state machines and the wire codec import no deterministic PRNG, and
# in internal/sig only deterministic.go does, whose DeterministicSigners
# makes repeatable test and benchmark keys.
if go list -f '{{join .Imports "\n"}}' ./internal/core/... ./internal/wire/... | grep -x -e math/rand -e math/rand/v2; then
    echo "internal/core or internal/wire imports math/rand" >&2
    exit 1
fi
if grep -rlE --include='*.go' --exclude='*_test.go' '"math/rand(/v2)?"' internal/sig |
    grep -vx internal/sig/deterministic.go; then
    echo "internal/sig imports math/rand outside deterministic.go" >&2
    exit 1
fi
# A verifier replays the server's computation exactly (the paper's
# v(Q,D) check), so the verification paths read no clock: internal/merkle
# and internal/vdb import no time at all.
if go list -f '{{join .Imports "\n"}}' ./internal/merkle/... ./internal/vdb/... | grep -x time; then
    echo "internal/merkle or internal/vdb imports time" >&2
    exit 1
fi
# (END deps rules)
# The benchmark is a nested module root go vet/test ./... skip; an
# internal/* signature change that breaks benchmark/layers.go fails here.
go -C benchmark vet .
go -C benchmark test .
# The counted-metric gate: a short run of the benchmark's key-value
# read and write, CVS and journaled epoch-audit workloads must stay
# inside the allocation budgets of scripts/count_budget.txt (and the two
# key-value write workloads inside their live-heap budgets), and a
# traced key-value run inside its byte budgets (request, response and
# journal-record bytes, VO digests) and its budget for the allocations
# of one in-process Protocol II operation: an encoding that grows by a
# byte fails here, and so does a journal that allocates a buffer per
# segment. Counts repeat; the timings of the same runs are printed for
# the log and gate nothing.
for w in kv-read kv-write cvs-mixed kv-write-epoch-wal; do
    bash benchmark/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1 |
        python3 scripts/countgate.py scripts/count_budget.txt "$w"
done
bash benchmark/run.sh --workload kv-write --seed 1 --seconds 2 --trace 1 | tail -n 1 |
    python3 scripts/countgate.py scripts/count_budget.txt kv-write-traced
go run ./cmd/tcvs-lint -time ./...
go test -race ./...
# The full race run above already includes the fault and witness
# suites; this named pass keeps the PRs' acceptance scenarios one
# command away: kill/restart a live server mid-workload over faulty
# connections (E14), kill the primary for good — witness promotion,
# client failover, fork conviction by gossip, zero false alarms (E15) —
# and the epoch auditor: optimistic answers verified in batches, backpressure
# degrading to sync instead of dropping, an honest control with zero
# false alarms and adversaries convicted within one epoch (E17) — and
# the crash-durability matrix: obligations
# journaled before release, replayed through the verifier on reboot,
# tamper-before-crash convicted, journal I/O failure degrading to
# sync (E18) — and the overload layer: priority shedding with typed
# refusals before any state is touched, the one circuit breaker the
# resilient client shares with the witness publisher's lanes (probe
# storms bounded under 64-client concurrency, a dead witness dialled
# once per cooldown), sheds never journaled and never audit
# obligations, degrade-to-sync sticky under concurrent shedding, and
# E21 at CI scale: the goodput and refusal ladder under overload and
# the fork trial under flood (E21) — and the one atomic file replace
# walked through every crash point (internal/durable).
go test -race -run 'Fault|Resilient|Resume|Recovery|Witness|E14|E15|Audit|Epoch|E17|WAL|E18|Overload|Shed|Breaker|E21|Atomic' ./internal/fault ./internal/durable ./internal/transport ./internal/broadcast ./internal/server ./internal/witness ./internal/bench ./internal/core/proto2 ./internal/audit ./internal/driver ./internal/wal .

go test -run='^$' -fuzz='^FuzzFrameDecode$' -fuzztime=10s ./internal/wire
go test -run='^$' -fuzz='^FuzzVOVerify$' -fuzztime=10s ./internal/merkle
go test -run='^$' -fuzz='^FuzzAnswerDecode$' -fuzztime=10s ./internal/vdb
go test -run='^$' -fuzz='^FuzzDiffPatch$' -fuzztime=10s ./internal/diff
go test -run='^$' -fuzz='^FuzzSnapshotLoad$' -fuzztime=10s ./internal/server
go test -run='^$' -fuzz='^FuzzUserStateRestore$' -fuzztime=10s ./internal/core/proto2
go test -run='^$' -fuzz='^FuzzWALReplay$' -fuzztime=10s ./internal/wal

# Non-test Go lines per package, so a simplicity PR's before/after
# column comes from one command.
scripts/loc.sh
# The admission controller sits under every server, and every verified
# operation hashes tree nodes, builds a VO and materializes one, so
# their per-piece costs go in every log, and beside them the verifier's
# whole path: materialize, check the old root, replay, hash the new
# root. The audit journal's append, the blocking step of an epoch-audit
# operation, goes beside them with its p50 and p99. Printed, not gated.
go test -run '^$' -bench AdmissionUncontended -benchmem ./internal/transport
go test -run '^$' -bench 'NodeDigest|VOBuild|VOTree' -benchmem ./internal/merkle
go test -run '^$' -bench AppendAcrossEpochs ./internal/wal
go test -run '^$' -bench 'E2VOVerify' -benchmem .
