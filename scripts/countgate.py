"""countgate.py <budget-file> <workload>: reads one benchmark result line
(the JSON object benchmark/run.sh prints last) on stdin, prints every
metric, and exits 1 if the run failed operations, was incorrect, or a
metric the budget file names for the workload exceeds its budget."""
import json
import sys

budget_file, workload = sys.argv[1], sys.argv[2]
budgets = {}
for line in open(budget_file):
    fields = line.split("#")[0].split()
    if len(fields) == 3 and fields[0] == workload:
        budgets[fields[1]] = float(fields[2])

run = json.loads(sys.stdin.read())
bad = []
if run.get("failed") or not run.get("correct"):
    bad.append("failed %s operations, correct=%s" % (run.get("failed"), run.get("correct")))
for name, m in sorted(run["metrics"].items()):
    note = ""
    if name in budgets:
        note = "  (budget %g)" % budgets[name]
        if m["value"] > budgets[name]:
            bad.append("%s %.3f exceeds its budget %g" % (name, m["value"], budgets[name]))
    print("%s %-16s %12.3f %s%s" % (workload, name, m["value"], m["unit"], note))
for name in budgets:
    if name not in run["metrics"]:
        bad.append("no metric %s in the run" % name)
if bad:
    sys.exit("count gate: %s: %s" % (workload, "; ".join(bad)))
