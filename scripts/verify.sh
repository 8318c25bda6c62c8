#!/usr/bin/env bash
# Tier-1 verification: hermetic offline build, full test suite (which
# runs every experiment table at a smoke budget), a one-iteration smoke
# pass over every microbenchmark and one table through the experiments
# binary. This is the exact gate CI runs; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> the test oracle ships nowhere: mars-oracle is outside the normal dependency trees"
# mars-oracle (the fused decoder's primitive-op transcription) is named
# only in [dev-dependencies]. A normal dependency on it would link test
# code into mars-cli or the benchmark; print the path that pulled it in.
for TREE_ARGS in "-p mars" "--manifest-path ledger/Cargo.toml"; do
    # shellcheck disable=SC2086 # two words each, split on purpose
    TREE=$(cargo tree --offline --locked -e normal $TREE_ARGS --prefix none)
    if grep -q "^mars-oracle " <<< "$TREE"; then
        echo "mars-oracle is a normal dependency of $TREE_ARGS, pulled in by:"
        cargo tree --offline --locked -e normal $TREE_ARGS -i mars-oracle
        exit 1
    fi
done

echo "==> cargo test -q (offline)"
cargo test -q --offline --workspace

echo "==> kernel benches, smoke mode (one iteration each)"
cargo bench -p mars-bench --bench kernels --offline -- --smoke

echo "==> experiments runner: one table through the binary twice, the second run a pure render"
# `cargo test` above already ran every table at 8 evaluations and 1 seed
# (mars-bench's smoke::* tests). This checks what they do not reach:
# the binary's argument parsing, the record the writer leaves behind,
# and the shared cells file: the same command run again must train no
# cell and write the same record, and Table 2 must read back the three
# Mars cells the partitioner ablation trained.
RECORD=target/experiments/ablation_partitioner.json
CELLS=target/experiments/cells.jsonl
rm -f "$RECORD" "$CELLS"
cargo bench -p mars-bench --bench experiments --offline -- ablation_partitioner --budget 8 --seeds 1
cp "$RECORD" "$RECORD.first"
RERUN_ERR=$(cargo bench -p mars-bench --bench experiments --offline -- ablation_partitioner \
    --budget 8 --seeds 1 2>&1 >/dev/null)
grep -q "^ablation_partitioner: ran 0 cells, reused 3$" <<< "$RERUN_ERR" || {
    echo "the re-run over a complete cells file trained cells:"; echo "$RERUN_ERR"; exit 1; }
cmp "$RECORD.first" "$RECORD" || { echo "the re-run from the cells file wrote another record"; exit 1; }
python3 - "$RECORD" <<'PY' || { echo "the runner left no parsable record at $RECORD"; exit 1; }
import json, sys
record = json.load(open(sys.argv[1]))
assert record["experiment"] == "ablation_partitioner", record["experiment"]
assert (record["budget"], record["seeds"]) == (8, 1), (record["budget"], record["seeds"])
assert len(record["tables"][0]["rows"]) == 3, record["tables"]
PY
TABLE2_ERR=$(cargo bench -p mars-bench --bench experiments --offline -- table2_final \
    --budget 8 --seeds 1 2>&1 >/dev/null)
grep -q "^table2_final: ran 9 cells, reused 3$" <<< "$TABLE2_ERR" || {
    echo "table2_final did not share the partitioner ablation's Mars cells:"; echo "$TABLE2_ERR"
    exit 1; }

echo "==> kernel dispatch parity: MARS_KERNEL=scalar must print identically to auto"
# Mars runs the seq2seq placer in segments, after ten DGI iterations;
# the grouper runs it as one segment over its group embeddings, and
# does not pre-train (it refuses --dgi-iters).
MARS_OUT=$(./target/release/mars-cli train inception --agent mars --budget 40 \
    --dgi-iters 10 --seed 1)
MARS_SCALAR_OUT=$(MARS_KERNEL=scalar ./target/release/mars-cli train inception --agent mars \
    --budget 40 --dgi-iters 10 --seed 1)
diff <(echo "$MARS_SCALAR_OUT") <(echo "$MARS_OUT") || {
    echo "forcing the scalar kernel backend changed mars's training output"; exit 1; }
GROUPER_OUT=$(./target/release/mars-cli train inception --agent grouper --budget 40 --seed 1)
GROUPER_SCALAR_OUT=$(MARS_KERNEL=scalar ./target/release/mars-cli train inception \
    --agent grouper --budget 40 --seed 1)
diff <(echo "$GROUPER_SCALAR_OUT") <(echo "$GROUPER_OUT") || {
    echo "forcing the scalar kernel backend changed grouper's training output"; exit 1; }

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

echo "==> arena smoke: DGI pretrain recycles its three tapes every iteration"
# Ten iterations, each resetting the two views' tapes and the
# discriminator's.
./target/release/mars-cli pretrain inception --dgi-iters 10 --seed 1 \
    --telemetry "$ARENA_RUN" > /dev/null
./target/release/mars-cli metrics summarize "$ARENA_RUN" \
    | grep "training arena: 30 tape reuses" > /dev/null || {
    echo "autograd.arena.reset counter never fired during pretrain"; exit 1; }

echo "==> fault smoke: degraded train, remap telemetry, bit-identical reruns"
FAULT_ARGS=(train inception --budget 40 --dgi-iters 10 --seed 1
    --fault-plan "fail:2@10")
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
# (tests/determinism.rs pins the same for the training trace).
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

echo "==> kernel dispatch parity at DGI width: MARS_KERNEL=scalar must pin the same dgi_loss_fnv"
# The parity diff above runs Reduced Inception at small widths, where the
# product kernel's width-256 tiles and single-column lanes barely run;
# pretrain_corpus --smoke runs DGI at width 256 over all eight graphs.
# The detected backend is the one the run reports as
# provenance.kernel_backend (avx512, avx2 or neon), so the log shows
# which vector path the comparison covered.
LEDGER=target/ledger/release/ledger
SCALAR_FNV=$(MARS_KERNEL=scalar "$LEDGER" --workload pretrain_corpus --smoke | grep "dgi_loss_fnv")
AUTO_OUT=$("$LEDGER" --workload pretrain_corpus --smoke)
AUTO_FNV=$(grep "dgi_loss_fnv" <<< "$AUTO_OUT")
AUTO_BACKEND=$(grep -o "provenance.kernel_backend: .*" <<< "$AUTO_OUT" | cut -d' ' -f2)
echo "scalar:   $SCALAR_FNV"
echo "detected ($AUTO_BACKEND): $AUTO_FNV"
[ "$SCALAR_FNV" = "$AUTO_FNV" ] || {
    echo "forcing the scalar kernel backend changed the DGI losses at width 256"; exit 1; }

echo "==> thread-count parity: MARS_THREADS=1 must pin the same fnv lines as the default pool"
# The pool's lanes (the two BiLSTM directions, the decoder's per-segment
# replay, the products' row blocks) change which thread computes a
# value, never its arithmetic: a run without helpers must print the
# default run's training trace and DGI losses.
for WORKLOAD in train_gnmt4 pretrain_corpus; do
    ONE_FNV=$(MARS_THREADS=1 "$LEDGER" --workload "$WORKLOAD" --smoke | grep "_fnv")
    POOL_FNV=$("$LEDGER" --workload "$WORKLOAD" --smoke | grep "_fnv")
    echo "$WORKLOAD, MARS_THREADS=1:" $ONE_FNV
    echo "$WORKLOAD, default:      " $POOL_FNV
    [ "$ONE_FNV" = "$POOL_FNV" ] || {
        echo "running $WORKLOAD on one thread changed its fnv pins"; exit 1; }
done

echo "==> OK: build, tests, bench and experiments smokes, kernel and thread parity, observability, fault, serve and ledger smokes all green"
