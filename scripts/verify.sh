#!/usr/bin/env bash
# Tier-1 verification: hermetic offline build, full test suite, and a
# one-iteration smoke pass over every microbenchmark. This is the exact
# gate CI runs; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> cargo test -q (offline)"
cargo test -q --offline --workspace

echo "==> kernel benches, smoke mode (one iteration each)"
cargo bench -p mars-bench --bench kernels --offline -- --smoke

echo "==> kernel dispatch parity: MARS_KERNEL=scalar must print identically to auto"
SERIAL_OUT=$(./target/release/mars-cli train inception --budget 40 --dgi-iters 10 --seed 1)
SCALAR_OUT=$(MARS_KERNEL=scalar ./target/release/mars-cli train inception --budget 40 \
    --dgi-iters 10 --seed 1)
diff <(echo "$SCALAR_OUT") <(echo "$SERIAL_OUT") || {
    echo "forcing the scalar kernel backend changed training output"; exit 1; }

echo "==> telemetry smoke: tiny instrumented training run + summarize"
TELEMETRY_RUN=$(mktemp /tmp/mars-telemetry-XXXXXX.jsonl)
FAULT_RUN=$(mktemp /tmp/mars-fault-XXXXXX.jsonl)
ARENA_RUN=$(mktemp /tmp/mars-arena-XXXXXX.jsonl)
trap 'rm -f "$TELEMETRY_RUN" "$FAULT_RUN" "$ARENA_RUN"' EXIT
./target/release/mars-cli train inception --budget 40 --dgi-iters 10 --seed 1 \
    --telemetry "$TELEMETRY_RUN" > /dev/null
SUMMARY=$(./target/release/mars-cli metrics summarize "$TELEMETRY_RUN")
# Captured text is searched from a here-string: `echo "$X" | grep -q`
# under `pipefail` fails when grep exits at an early match and echo
# meets the closed pipe. A failing check prints the text it searched.
grep -q "tensor.ops.matmul" <<< "$SUMMARY" || {
    echo "$SUMMARY"; echo "telemetry summary has no tensor kernel spans"; exit 1; }
grep -q "ppo.update" <<< "$SUMMARY" || {
    echo "$SUMMARY"; echo "telemetry summary has no PPO update events"; exit 1; }
grep -q "sim.eval" <<< "$SUMMARY" || {
    echo "$SUMMARY"; echo "telemetry summary has no simulator eval events"; exit 1; }
# A `grep -q` fed straight from mars-cli exits at its first match, and a
# mars-cli still printing then dies of the broken pipe (Rust ignores
# SIGPIPE, println! panics), which `pipefail` reports: read to the end.
./target/release/mars-cli metrics flame "$TELEMETRY_RUN" 2>/dev/null | grep "^learner;" > /dev/null || {
    echo "flame export has no learner stacks"; exit 1; }
./target/release/mars-cli metrics tail "$TELEMETRY_RUN" --lines 0 | grep "run complete" > /dev/null || {
    echo "tail did not reach the end-of-run marker"; exit 1; }

echo "==> arena smoke: DGI pretrain recycles its tape every iteration"
./target/release/mars-cli pretrain inception --dgi-iters 10 --seed 1 \
    --telemetry "$ARENA_RUN" > /dev/null
./target/release/mars-cli metrics summarize "$ARENA_RUN" \
    | grep "training arena: 10 tape reuses" > /dev/null || {
    echo "autograd.arena.reset counter never fired during pretrain"; exit 1; }

echo "==> fault smoke: degraded train, remap telemetry, bit-identical reruns"
FAULT_ARGS=(train inception --budget 40 --dgi-iters 10 --seed 1
    --fault-plan "fail:2@10, transient:0.2, straggler:0.1x6")
FAULT_A=$(./target/release/mars-cli "${FAULT_ARGS[@]}" --telemetry "$FAULT_RUN" \
    | grep -v "^telemetry written")
grep -q "cluster degraded: failed devices \[2\]" <<< "$FAULT_A" || {
    echo "$FAULT_A"; echo "planned device failure did not degrade the cluster"; exit 1; }
FAULT_SUMMARY=$(./target/release/mars-cli metrics summarize "$FAULT_RUN")
grep -q "fault injection" <<< "$FAULT_SUMMARY" || {
    echo "$FAULT_SUMMARY"; echo "telemetry summary has no fault-injection section"; exit 1; }
grep -q "device failures: 1 (" <<< "$FAULT_SUMMARY" || {
    echo "$FAULT_SUMMARY"; echo "fault summary did not count the device failure"; exit 1; }
grep -Eq "device failures: 1 \([1-9][0-9]* remaps" <<< "$FAULT_SUMMARY" || {
    echo "$FAULT_SUMMARY"; echo "fault summary recorded no placement remaps"; exit 1; }
# Same seed + same plan must reproduce the run bit for bit
# (tests/fault_determinism.rs pins the same for the training trace).
FAULT_B=$(./target/release/mars-cli "${FAULT_ARGS[@]}")
diff <(echo "$FAULT_A") <(echo "$FAULT_B") || {
    echo "faulty rerun was not bit-identical"; exit 1; }

echo "==> serve smoke: daemon on a unix socket, bit-identical responses, warm restart"
SERVE_SOCK=$(mktemp -u /tmp/mars-serve-XXXXXX.sock)
SERVE_STORE=$(mktemp -u /tmp/mars-serve-store-XXXXXX.jsonl)
mkdir -p target/experiments
SERVE_TRACE=target/experiments/serve_smoke.jsonl
# Wait until the daemon whose stdout is $1 is listening. `bind` creates
# the socket file before `listen`, so a client that waits for the file
# can still be refused; the daemon prints this line once
# `Listener::bind` has returned.
wait_for_serve() {
    for _ in $(seq 1 100); do
        grep -q "^serving weights .* on " "$1" && return; sleep 0.1; done
    echo "serve never listened on $SERVE_SOCK"; cat "$1"; exit 1
}
./target/release/mars-cli serve --listen "unix:$SERVE_SOCK" --seed 1 \
    --store "$SERVE_STORE" --telemetry "$SERVE_TRACE" > /tmp/mars-serve-log.$$ 2>&1 &
SERVE_PID=$!
wait_for_serve /tmp/mars-serve-log.$$
PLACE_A=$(./target/release/mars-cli place seq2seq --connect "unix:$SERVE_SOCK" --top-k 2 --repeat 3)
PLACE_B=$(./target/release/mars-cli place seq2seq --connect "unix:$SERVE_SOCK" --top-k 2 --repeat 3)
diff <(echo "$PLACE_A") <(echo "$PLACE_B") || {
    echo "placement responses were not bit-identical across client runs"; exit 1; }
grep -q "identical to response 0" <<< "$PLACE_A" || {
    echo "$PLACE_A"; echo "repeat responses were not verified identical"; exit 1; }
# The same graph on a degraded cluster: a new key, landed from the
# graph's memo without a second forward.
./target/release/mars-cli place seq2seq --connect "unix:$SERVE_SOCK" --fail-device 2 > /dev/null
./target/release/mars-cli place seq2seq --connect "unix:$SERVE_SOCK" --shutdown > /dev/null
wait "$SERVE_PID" || { echo "serve daemon failed"; cat /tmp/mars-serve-log.$$; exit 1; }
grep -q "serve loop done" /tmp/mars-serve-log.$$ || {
    echo "serve daemon did not report a clean shutdown"; cat /tmp/mars-serve-log.$$; exit 1; }
grep -q "cold 2, 1 forward(s))" /tmp/mars-serve-log.$$ || {
    echo "two clusters of one graph did not share its forward"; cat /tmp/mars-serve-log.$$; exit 1; }
[ -s "$SERVE_STORE" ] || { echo "serve daemon wrote no placement store"; exit 1; }
./target/release/mars-cli metrics summarize "$SERVE_TRACE" | grep "serve.requests" > /dev/null || {
    echo "serve trace has no request counters"; exit 1; }
# Warm restart: the same seed + store must answer from the persistent
# tier with byte-identical output.
./target/release/mars-cli serve --listen "unix:$SERVE_SOCK" --seed 1 \
    --store "$SERVE_STORE" > /tmp/mars-serve-log2.$$ 2>&1 &
SERVE_PID=$!
wait_for_serve /tmp/mars-serve-log2.$$
PLACE_C=$(./target/release/mars-cli place seq2seq --connect "unix:$SERVE_SOCK" --top-k 2 --repeat 3)
diff <(echo "$PLACE_A") <(echo "$PLACE_C") || {
    echo "warm-restart responses diverged from the first run"; exit 1; }
./target/release/mars-cli place seq2seq --connect "unix:$SERVE_SOCK" --shutdown > /dev/null
wait "$SERVE_PID" || { echo "restarted serve daemon failed"; cat /tmp/mars-serve-log2.$$; exit 1; }
grep -q "2 entries loaded" /tmp/mars-serve-log2.$$ || {
    echo "restart did not load the placement store"; cat /tmp/mars-serve-log2.$$; exit 1; }
grep -q "warm 1" /tmp/mars-serve-log2.$$ || {
    echo "restart did not answer from the warm tier"; cat /tmp/mars-serve-log2.$$; exit 1; }
rm -f /tmp/mars-serve-log.$$ /tmp/mars-serve-log2.$$ "$SERVE_STORE"

echo "==> ledger_pairs.sh self-test: the summary table on two canned pairs"
scripts/ledger_pairs.sh --self-test

echo "==> ledger smoke: the benchmark is a package outside the workspace, so build it here too"
# Nothing above compiles ledger/, and it calls public entry points of
# crates/ — an API change there would otherwise break the benchmark
# unseen. --locked fails the build, instead of rewriting
# ledger/Cargo.lock, when a crate's [dependencies] drifted from the
# lockfile the benchmark is pinned to. --smoke runs every workload at
# ~1/50 size with all checks on.
CARGO_TARGET_DIR=target/ledger cargo run --release --offline --locked --quiet \
    --manifest-path ledger/Cargo.toml -- --smoke

echo "==> OK: build, tests, bench smoke, kernel parity, observability, fault, serve and ledger smokes all green"
