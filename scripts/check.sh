#!/bin/sh
# check.sh — the repo's full verification gate. Run it before every
# commit: formatting, vet, build, the repo's own invariant analyzer
# (tcvs-lint: hash discipline, lock narrowness, deterministic
# verification paths, checked errors, panic-free handlers, plus the
# interprocedural passes — verifyflow's untrusted-source → trusted-state
# taint check and lockorder's static lock-acquisition cycle check —
# and deadignore's stale-suppression sweep; -time prints per-pass
# wall-clock so a regressing pass is visible in CI logs), the whole
# test suite under the race detector (the pipelined server hot path
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
# encoding/gob is retired: nothing sent, journaled or stored goes
# through it, so no production package may link it (tcvs-lint's
# hashdiscipline says the same per import).
if go list -deps ./... | grep -x encoding/gob; then
    echo "a package of the module depends on encoding/gob" >&2
    exit 1
fi
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
