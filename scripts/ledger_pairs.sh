#!/usr/bin/env bash
# Alternating parent/change pairs of one ledger workload — the comparison
# a change that claims (or must not lose) performance reports.
#
#   scripts/ledger_pairs.sh <parent-tree> <change-tree> <workload> [pairs=10] [seed0=101]
#   scripts/ledger_pairs.sh --self-test    # the summary table on two canned pairs
#
# Each tree is a checkout (e.g. `git clone` of the parent commit, and the
# working tree). Its ledger is built once into <tree>/target/ledger, then
# pair i runs both binaries on seed0+i for the benchmark's `run_seconds`,
# parent first on even i and change first on odd i. Prints every run,
# then per end-to-end metric both medians, the parent's q1–q3, the pairs
# the change won (ties count for neither) and whether the medians differ
# by more than the parent's interquartile distance; then `correct` /
# `failed`, and whether `training_trace_fnv` / `dgi_loss_fnv` (the
# same-arithmetic pins) were equal in every pair that printed them.
set -euo pipefail

# value <file> <metric>: the metric's value in the run's result line.
value() {
    tail -n 1 "$1" | grep -o "\"$2\":{\"value\":[^,]*" | sed 's/.*"value"://'
}
# better <metric>: "higher" or "lower", from the benchmark's declaration.
better() {
    grep -A 3 "\"name\": \"$1\"" "$CHANGE/BENCHMARK.json" | grep -o '"better": "[a-z]*"' \
        | head -n 1 | sed 's/.*: "//; s/"//'
}
# summarise: one row per end-to-end metric of $OUT/{parent,change}.<i>, i < $PAIRS.
summarise() {
    printf '%-12s %-6s %14s %29s %14s %9s  %s\n' \
        metric better parent_median 'parent_q1..q3' change_median pairs_won 'medians apart by > parent IQR'
    for metric in $(tail -n 1 "$OUT/parent.0" | grep -o '"[a-z0-9_]*":{"value"' | sed 's/"//g; s/:{value//'); do
        dir=$(better "$metric")
        for i in $(seq 0 $((PAIRS - 1))); do
            echo "$(value "$OUT/parent.$i" "$metric") $(value "$OUT/change.$i" "$metric")"
        done | awk -v metric="$metric" -v dir="$dir" '
            function quantile(v, n, p,    pos, lo, frac) {
                pos = p * (n - 1); lo = int(pos); frac = pos - lo
                return lo + 1 < n ? v[lo] + frac * (v[lo + 1] - v[lo]) : v[lo]
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 0; i < n; i++) dst[i] = src[i]
                for (i = 1; i < n; i++) { t = dst[i]; for (j = i - 1; j >= 0 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
            }
            # mawk indexes an array by an unset n as "", not 0: pair 0
            # would be stored where sorted() never reads it.
            BEGIN { n = 0 }
            NF == 2 { p[n] = $1; c[n] = $2; n++
                      if (dir == "higher" ? $2 > $1 : $2 < $1) won++ }
            END {
                if (n == 0) { printf "%-12s no complete pair\n", metric; exit }
                sorted(p, sp, n); sorted(c, sc, n)
                pm = quantile(sp, n, 0.5); cm = quantile(sc, n, 0.5)
                q1 = quantile(sp, n, 0.25); q3 = quantile(sp, n, 0.75)
                gap = dir == "higher" ? cm - pm : pm - cm
                verdict = gap > q3 - q1 ? "change better" : (-gap > q3 - q1 ? "change WORSE" : "no")
                printf "%-12s %-6s %14.6g %14.6g..%-13.6g %14.6g %6d/%-2d  %s (%+.1f%%)\n", \
                    metric, dir, pm, q1, q3, cm, won, n, verdict, pm != 0 ? 100 * (cm - pm) / pm : 0
            }'
    done
}

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

if [ "${1:-}" = --self-test ]; then
    # Two pairs: each median is the mean of its two readings, each
    # quartile a quarter of the way in, and the change wins both.
    CHANGE=$(cd "$(dirname "$0")/.." && pwd)
    PAIRS=2
    echo 'ledger: {"ops_per_s":{"value":100,"unit":"1/s"},"correct":true}' > "$OUT/parent.0"
    echo 'ledger: {"ops_per_s":{"value":120,"unit":"1/s"},"correct":true}' > "$OUT/parent.1"
    echo 'ledger: {"ops_per_s":{"value":200,"unit":"1/s"},"correct":true}' > "$OUT/change.0"
    echo 'ledger: {"ops_per_s":{"value":220,"unit":"1/s"},"correct":true}' > "$OUT/change.1"
    got=$(summarise | tail -n 1 | tr -s ' ')
    want='ops_per_s higher 110 105..115 210 2/2 change better (+90.9%)'
    [ "$got" = "$want" ] || { printf 'self-test: summary row is\n  %s\nnot\n  %s\n' "$got" "$want"; exit 1; }
    echo "self-test: ok"
    exit 0
fi

[ $# -ge 3 ] || { sed -n '2,7p' "$0"; exit 2; }
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
WORKLOAD=$3
PAIRS=${4:-10}
SEED0=${5:-101}
SECONDS_PER_RUN=$(grep -o '"run_seconds": *[0-9]*' "$CHANGE/BENCHMARK.json" | grep -o '[0-9]*$')

build() {
    echo "==> building $1/ledger" >&2
    (cd "$1" && CARGO_TARGET_DIR=target/ledger cargo build --release --offline --quiet \
        --manifest-path ledger/Cargo.toml)
}
build "$PARENT"
build "$CHANGE"

# run <side> <tree> <pair> <seed>: one ledger process; keeps its stdout.
run() {
    (cd "$2" && ./target/ledger/release/ledger --workload "$WORKLOAD" --seed "$4" \
        --seconds "$SECONDS_PER_RUN" --trace 0) > "$OUT/$1.$3" || true
    echo "pair $3 seed $4 $1: $(tail -n 1 "$OUT/$1.$3")"
}

for i in $(seq 0 $((PAIRS - 1))); do
    seed=$((SEED0 + i))
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$PARENT" "$i" "$seed"; run change "$CHANGE" "$i" "$seed"
    else
        run change "$CHANGE" "$i" "$seed"; run parent "$PARENT" "$i" "$seed"
    fi
done

echo
echo "== $WORKLOAD: $PAIRS pairs, seeds $SEED0..$((SEED0 + PAIRS - 1)), $SECONDS_PER_RUN s each =="
summarise

for side in parent change; do
    ok=0; failed=0
    for i in $(seq 0 $((PAIRS - 1))); do
        tail -n 1 "$OUT/$side.$i" | grep -q '"correct":true' && ok=$((ok + 1))
        f=$(tail -n 1 "$OUT/$side.$i" | grep -o '"failed":[0-9]*' | grep -o '[0-9]*$' || echo 0)
        failed=$((failed + ${f:-0}))
    done
    echo "$side: correct in $ok/$PAIRS runs, $failed failed operation(s)"
done
for pin in training_trace_fnv dgi_loss_fnv; do
    seen=0; same=0
    for i in $(seq 0 $((PAIRS - 1))); do
        a=$(grep -o "$pin: [0-9a-f]*" "$OUT/parent.$i" || true)
        b=$(grep -o "$pin: [0-9a-f]*" "$OUT/change.$i" || true)
        [ -n "$a$b" ] || continue
        seen=$((seen + 1))
        [ "$a" = "$b" ] && same=$((same + 1))
    done
    [ "$seen" -eq 0 ] || echo "$pin: equal in $same/$seen pairs"
done
