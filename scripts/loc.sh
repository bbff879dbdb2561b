#!/bin/sh
# loc.sh — non-test Go lines per package (raw `wc -l`, comments and
# blanks included), the before/after column of every simplicity PR.
# Run it at the parent commit and at the change and diff the output.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path '*/testdata/*' |
    while read -r f; do
        echo "$(dirname "$f" | sed 's|^\./||') $(wc -l <"$f")"
    done |
    awk '{ n[$1] += $2; total += $2 }
         END { for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  total\n", total }' |
    sort -k2
