#!/bin/sh
# pairbench.sh — the paired-run protocol of the choosing-metrics guide
# (§8), one command:
#
#   scripts/pairbench.sh <parent-checkout> <change-checkout> <workload> <seed>...
#
# For every seed it runs the repo's benchmark (BENCHMARK.json: command,
# run_seconds, metrics, bounds — read from the change checkout) once in
# each checkout, alternating which side goes first (odd seeds: parent
# first), each run from its own checkout so each side builds its own
# source. It then prints, per end-to-end metric, each side's median and
# interquartile range, the pairs each side won, and a verdict:
#
#   better       the change won at least nine tenths of the pairs (ties
#                count for neither) and the medians are further apart
#                than the parent's own quartiles
#   worse        the change's median is worse than the parent's by more
#                than the metric's bound
#   unresolved   neither, and the parent's spread is wider than the
#                bound, so "unchanged" cannot be claimed
#   within bound neither, and the spread is inside the bound
#
# and appends one row per metric to BENCH_TRAJECTORY.json at the root of
# the change checkout (created if missing). A run that fails operations
# or reports correct: false aborts the protocol. Every run made is in
# the output. Needs python3 for the arithmetic.
set -eu

if [ "$#" -lt 4 ]; then
    echo "usage: $0 <parent-checkout> <change-checkout> <workload> <seed>..." >&2
    exit 2
fi
command -v python3 >/dev/null || { echo "pairbench: python3 not found" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$change/BENCHMARK.json")

# run_side <side> <checkout> <seed>: one benchmark run; its result line
# (the JSON object the benchmark prints last) goes to $runs.
run_side() {
    out=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\n' "$1" "$3" "$out" >>"$runs"
    printf '%s seed %s: %s\n' "$1" "$3" "$out"
}

for seed in "$@"; do
    if [ $((seed % 2)) -eq 1 ]; then
        run_side parent "$parent" "$seed"
        run_side change "$change" "$seed"
    else
        run_side change "$change" "$seed"
        run_side parent "$parent" "$seed"
    fi
done

# rev <checkout>: its commit, marked when the tree has uncommitted edits.
rev() {
    r=$(git -C "$1" rev-parse --short HEAD 2>/dev/null || echo unknown)
    [ -z "$(git -C "$1" status --porcelain 2>/dev/null)" ] || r="$r+uncommitted"
    echo "$r"
}

python3 - "$runs" "$change" "$workload" "$(rev "$parent")" "$(rev "$change")" <<'EOF'
import json, statistics, sys, time

runs_path, change_dir, workload, parent_rev, change_rev = sys.argv[1:6]
spec = json.load(open(change_dir + "/BENCHMARK.json"))
sides = {"parent": {}, "change": {}}
for line in open(runs_path):
    side, seed, result = line.rstrip("\n").split("\t", 2)
    r = json.loads(result)
    if not r["correct"] or r["failed"]:
        sys.exit("pairbench: %s seed %s: correct=%s failed=%s" % (side, seed, r["correct"], r["failed"]))
    sides[side][seed] = {k: v["value"] for k, v in r["metrics"].items()}
seeds = sorted(sides["parent"], key=int)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

rows = []
if len(seeds) < 10:
    print("\nfewer than ten pairs: the verdicts below are indicative, not a claim")
print("\n%s: %d pairs, seeds %s, parent %s, change %s" % (workload, len(seeds), " ".join(seeds), parent_rev, change_rev))
print("%-16s %12s %10s %12s %10s %8s %5s  %s" % ("metric", "parent med", "IQR", "change med", "IQR", "delta", "wins", "verdict"))
for m in spec["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    p = [sides["parent"][s][name] for s in seeds]
    c = [sides["change"][s][name] for s in seeds]
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(better(ci, pi) for ci, pi in zip(c, p))
    losses = sum(better(pi, ci) for ci, pi in zip(c, p))
    pm, cm = statistics.median(p), statistics.median(c)
    pq1, pq3 = quartiles(p)
    cq1, cq3 = quartiles(c)
    piqr = pq3 - pq1
    rel = (cm - pm) / pm if pm else 0.0
    worse_by = rel if lower else -rel
    if wins >= 0.9 * len(seeds) and abs(cm - pm) > piqr and better(cm, pm):
        verdict = "better"
    elif worse_by > bound:
        verdict = "worse"
    elif all(better(ci, pi) for ci in c for pi in p):
        verdict = "better"
    elif pm and piqr / abs(pm) > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    print("%-16s %12.4g %10.3g %12.4g %10.3g %+7.1f%% %2d/%-2d  %s" %
          (name, pm, piqr, cm, cq3 - cq1, 100 * rel, wins, wins + losses, verdict))
    rows.append({
        "date": time.strftime("%Y-%m-%d"), "workload": workload, "metric": name, "unit": m["unit"],
        "parent": parent_rev, "change": change_rev, "seeds": [int(s) for s in seeds],
        "parent_median": pm, "parent_q1": pq1, "parent_q3": pq3,
        "change_median": cm, "change_q1": cq1, "change_q3": cq3,
        "wins": wins, "losses": losses, "verdict": verdict,
    })

path = change_dir + "/BENCH_TRAJECTORY.json"
try:
    trajectory = json.load(open(path))
except FileNotFoundError:
    trajectory = []
trajectory.extend(rows)
with open(path, "w") as f:
    f.write("[\n" + ",\n".join("  " + json.dumps(r, sort_keys=True) for r in trajectory) + "\n]\n")
print("appended %d rows to %s" % (len(rows), path))
EOF
