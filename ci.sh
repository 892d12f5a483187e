#!/usr/bin/env bash
# Repo CI gate: formatting, lints, build, tests, and a sam-check smoke run.
# Everything here must pass before a change merges.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
# --workspace matters: a bare `cargo build` here only covers the root
# package, leaving the bench binaries stale for the smokes below.
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> sam-obs compiled-out tests"
# The observability crate's no-op path is a separate compilation: prove
# the disabled API stays inert (phase() returns None, heartbeats spawn
# nothing) rather than assuming feature unification got it right.
cargo test -p sam-obs --no-default-features -q

echo "==> sam-analyze selftest + static-analysis gate"
# First prove every rule still fires on its known-bad fixture, then hold
# the workspace to zero unwaived findings and schema-lint the report the
# same way every other results/ document is gated.
cargo run --release -p sam-bench --bin sam-analyze -- --selftest
rm -f results/analyze.json
cargo run --release -p sam-bench --bin sam-analyze -- --deny-all
[ -f results/analyze.json ] || { echo "results/analyze.json was not written"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/analyze.json

echo "==> sam-check selftest"
cargo run --release -p sam-bench --bin sam-check -- selftest

echo "==> sam-check record/replay smoke"
trace="$(mktemp /tmp/sam-check.XXXXXX.trace)"
trap 'rm -f "$trace"' EXIT
cargo run --release -p sam-bench --bin sam-check -- record "$trace"
cargo run --release -p sam-bench --bin sam-check -- replay "$trace"

echo "==> fig12 parallel checked smoke + JSON lint"
# Reduced scale: exercises the sweep workers, the oracle under --jobs,
# and the results/fig12.json emission end to end.
rm -f results/fig12.json
cargo run --release -p sam-bench --bin fig12 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 --checked
[ -f results/fig12.json ] || { echo "results/fig12.json was not written"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/fig12.json

echo "==> fig12 trace smoke + trace lint"
# Reduced scale again: records every run's event stream + epoch stats,
# then validates span nesting and timestamp monotonicity. The stdout
# tables must be identical to an untraced run (byte-identity guarantee).
rm -f results/fig12.trace.json
cargo run --release -p sam-bench --bin fig12 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 --trace --epoch-len 10000 > /tmp/fig12.traced.out
cargo run --release -p sam-bench --bin fig12 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 > /tmp/fig12.untraced.out
cmp /tmp/fig12.traced.out /tmp/fig12.untraced.out \
  || { echo "--trace changed fig12 stdout"; exit 1; }
[ -f results/fig12.trace.json ] || { echo "results/fig12.trace.json was not written"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-trace results/fig12.trace.json

echo "==> golden byte-identity gate (fig12 + table2)"
# The decomposed datapath and the provenance plumbing are behavior-
# preserving by construction: stdout and results/*.json must match the
# pre-change captures bit for bit. The untraced fig12 run above used the
# same arguments the goldens were recorded with.
cmp /tmp/fig12.untraced.out tests/golden/fig12.out \
  || { echo "fig12 stdout drifted from tests/golden/fig12.out"; exit 1; }
cmp results/fig12.json tests/golden/fig12.json \
  || { echo "results/fig12.json drifted from tests/golden/fig12.json"; exit 1; }
rm -f results/table2.json
cargo run --release -p sam-bench --bin table2 > /tmp/table2.out
cmp /tmp/table2.out tests/golden/table2.out \
  || { echo "table2 stdout drifted from tests/golden/table2.out"; exit 1; }
cmp results/table2.json tests/golden/table2.json \
  || { echo "results/table2.json drifted from tests/golden/table2.json"; exit 1; }

echo "==> simbench self-tests + one-second run of each workload"
# Every simbench run bit-compares each run's statistics against the
# goldens (fig12, fig16) or simbench/data/ctrl_stream.json and exits
# non-zero on any difference. The ctrl_stream check covers what no
# golden cmp above does: bare-controller streams, so a changed
# scheduling decision fails here even when no figure moves.
cargo test --release --offline --manifest-path simbench/Cargo.toml
for workload in fig12_q fig12_qs fig16_hybrid ctrl_stream; do
  cargo run --release --quiet --offline --manifest-path simbench/Cargo.toml -- \
    --workload "$workload" --seconds 1 --trace 0 > "/tmp/simbench.$workload.out" \
    || { echo "simbench $workload failed:"; tail -5 "/tmp/simbench.$workload.out"; exit 1; }
done

echo "==> sharded sweep merge gate (fig12 split 2 ways -> byte-identity)"
# The shard oracle: the same golden-scale fig12 run split across two
# shards at *different* worker counts (standing in for different
# machines) must merge back to stdout and results JSON byte-identical
# to the goldens. Shard processes print nothing; the envelopes alone
# carry everything `merge-shards` needs to replay the rendering.
rm -f results/fig12.shard-1-of-2.json results/fig12.shard-2-of-2.json
./target/release/fig12 --rows 2048 --tb-rows 8192 --jobs 1 --shard 1/2 \
  > /tmp/fig12.shard1.out
./target/release/fig12 --rows 2048 --tb-rows 8192 --jobs 4 --shard 2/2 \
  > /tmp/fig12.shard2.out
for f in /tmp/fig12.shard1.out /tmp/fig12.shard2.out; do
  if [ -s "$f" ]; then echo "sharded fig12 printed to stdout ($f)"; exit 1; fi
done
cargo run --release -p sam-bench --bin sam-check -- \
  lint-json results/fig12.shard-1-of-2.json
rm -f results/fig12.json
cargo run --release -p sam-bench --bin sam-check -- merge-shards \
  results/fig12.shard-1-of-2.json results/fig12.shard-2-of-2.json \
  > /tmp/fig12.merged.out
cmp /tmp/fig12.merged.out tests/golden/fig12.out \
  || { echo "merged shard stdout drifted from tests/golden/fig12.out"; exit 1; }
cmp results/fig12.json tests/golden/fig12.json \
  || { echo "merged results/fig12.json drifted from tests/golden/fig12.json"; exit 1; }
# Adversarial leg: forge a gap (shard 2 silently drops its last run) and
# require the merge to hard-fail naming the unclaimed run.
jq '.runs |= .[:-1]' results/fig12.shard-2-of-2.json > /tmp/fig12.shard2.gapped.json
if cargo run --release -p sam-bench --bin sam-check -- merge-shards \
    results/fig12.shard-1-of-2.json /tmp/fig12.shard2.gapped.json \
    > /dev/null 2> /tmp/fig12.gap.err; then
  echo "merge-shards accepted an envelope with a dropped run"; exit 1
fi
grep -q "gap: no shard claims run" /tmp/fig12.gap.err \
  || { echo "gap merge failed with the wrong error:"; cat /tmp/fig12.gap.err; exit 1; }

echo "==> fig16 hybrid sweep gates (checked, jobs identity, shards, lint)"
# The DRAM-cache hybrid figure, held to the same bar as fig12: every
# hybrid point under --checked shadows BOTH device command streams (DDR4
# front + RRAM backing) with independent protocol oracles; stdout and
# results/fig16.json must be byte-identical across --jobs values and to
# the committed goldens; a 2-way shard split at different worker counts
# must merge back to the same bytes.
cargo run --release -p sam-bench --bin fig16 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 --checked > /dev/null
rm -f results/fig16.json
./target/release/fig16 --rows 2048 --tb-rows 8192 --jobs 1 > /tmp/fig16.jobs1.out
cp results/fig16.json /tmp/fig16.jobs1.json
rm -f results/fig16.json
./target/release/fig16 --rows 2048 --tb-rows 8192 --jobs 4 > /tmp/fig16.jobs4.out
cmp /tmp/fig16.jobs1.out /tmp/fig16.jobs4.out \
  || { echo "fig16 stdout differs between --jobs 1 and --jobs 4"; exit 1; }
cmp /tmp/fig16.jobs1.json results/fig16.json \
  || { echo "results/fig16.json differs between --jobs 1 and --jobs 4"; exit 1; }
cmp /tmp/fig16.jobs4.out tests/golden/fig16.out \
  || { echo "fig16 stdout drifted from tests/golden/fig16.out"; exit 1; }
cmp results/fig16.json tests/golden/fig16.json \
  || { echo "results/fig16.json drifted from tests/golden/fig16.json"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/fig16.json
rm -f results/fig16.shard-1-of-2.json results/fig16.shard-2-of-2.json
./target/release/fig16 --rows 2048 --tb-rows 8192 --jobs 1 --shard 1/2 \
  > /tmp/fig16.shard1.out
./target/release/fig16 --rows 2048 --tb-rows 8192 --jobs 4 --shard 2/2 \
  > /tmp/fig16.shard2.out
for f in /tmp/fig16.shard1.out /tmp/fig16.shard2.out; do
  if [ -s "$f" ]; then echo "sharded fig16 printed to stdout ($f)"; exit 1; fi
done
cargo run --release -p sam-bench --bin sam-check -- \
  lint-json results/fig16.shard-1-of-2.json
rm -f results/fig16.json
cargo run --release -p sam-bench --bin sam-check -- merge-shards \
  results/fig16.shard-1-of-2.json results/fig16.shard-2-of-2.json \
  > /tmp/fig16.merged.out
cmp /tmp/fig16.merged.out tests/golden/fig16.out \
  || { echo "merged shard stdout drifted from tests/golden/fig16.out"; exit 1; }
cmp results/fig16.json tests/golden/fig16.json \
  || { echo "merged results/fig16.json drifted from tests/golden/fig16.json"; exit 1; }
# Adversarial leg: a forged envelope (shard 1 silently drops its last
# run) must hard-fail the merge naming the unclaimed run.
jq '.runs |= .[:-1]' results/fig16.shard-1-of-2.json > /tmp/fig16.shard1.gapped.json
if cargo run --release -p sam-bench --bin sam-check -- merge-shards \
    /tmp/fig16.shard1.gapped.json results/fig16.shard-2-of-2.json \
    > /dev/null 2> /tmp/fig16.gap.err; then
  echo "merge-shards accepted a forged fig16 envelope with a dropped run"; exit 1
fi
grep -q "gap: no shard claims run" /tmp/fig16.gap.err \
  || { echo "fig16 gap merge failed with the wrong error:"; cat /tmp/fig16.gap.err; exit 1; }

echo "==> hybrid-mirror differential smoke (stress --hybrid-diff)"
# Every attack pattern through the DRAM-cache hybrid under both write
# policies, decision-for-decision against the pure functional mirror.
cargo run --release -p sam-bench --bin stress -- --hybrid-diff --seed 7

echo "==> fig12 profile/heartbeat smoke + byte-identity + profile lint"
# Observability on must not change a byte of stdout or the metrics JSON,
# serial or parallel; the emitted phase profile must pass the telescoping
# lint (children sum within parents, roots sum to total wall time).
for jobs in 1 4; do
  rm -f results/fig12.profile.json
  cargo run --release -p sam-bench --bin fig12 -- \
    --rows 2048 --tb-rows 8192 --jobs "$jobs" --profile --heartbeat=1 \
    > /tmp/fig12.observed.out 2>/dev/null
  cmp /tmp/fig12.observed.out tests/golden/fig12.out \
    || { echo "--profile/--heartbeat changed fig12 stdout at --jobs $jobs"; exit 1; }
  cmp results/fig12.json tests/golden/fig12.json \
    || { echo "--profile/--heartbeat changed results/fig12.json at --jobs $jobs"; exit 1; }
  [ -s results/fig12.profile.json ] \
    || { echo "--profile wrote no results/fig12.profile.json at --jobs $jobs"; exit 1; }
  cargo run --release -p sam-bench --bin sam-check -- lint-json results/fig12.profile.json
done

echo "==> fig12 bench (simulated cycles/sec) + regression gate"
# Times a fresh golden-scale fig12 run with the already-built binary (no
# cargo overhead in the measurement) and folds it over the metrics report
# into results/BENCH_fig12.json, appended to the committed trajectory.
# The gate fails on a >10% cycles/sec regression vs the last committed
# BENCH_fig12.json entry. Throughput is machine-local: on runners not
# comparable to where the baseline was recorded, set
# SAM_BENCH_GATE_PCT=off to keep the measurement but skip the gate, or
# to a different tolerance percentage.
rm -f results/BENCH_fig12.json
bench_start_ns="$(date +%s%N)"
./target/release/fig12 --rows 2048 --tb-rows 8192 --jobs 2 > /dev/null
bench_wall_ns="$(( $(date +%s%N) - bench_start_ns ))"
bench_gate=(--baseline BENCH_fig12.json --gate-pct "${SAM_BENCH_GATE_PCT:-10}")
if [ "${SAM_BENCH_GATE_PCT:-10}" = off ]; then bench_gate=(); fi
cargo run --release -p sam-bench --bin sam-check -- bench-fig12 results/fig12.json \
  --wall-ns "$bench_wall_ns" --jobs 2 --label ci \
  --out results/BENCH_fig12.json "${bench_gate[@]}"
cargo run --release -p sam-bench --bin sam-check -- lint-json results/BENCH_fig12.json

echo "==> per-core lanes smoke + JSON lint + rollup"
# --per-core adds lane sections and the cycles rollup; --debug-cores dumps
# progress to stderr. Neither may touch stdout (checked against the same
# golden), and the lint verifies the lanes telescope to the aggregates.
rm -f results/fig12.percore.json results/fig12.percore.rollup.json
cargo run --release -p sam-bench --bin fig12 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 --per-core --debug-cores \
  --out results/fig12.percore.json > /tmp/fig12.percore.out 2>/dev/null
cmp /tmp/fig12.percore.out tests/golden/fig12.out \
  || { echo "--per-core/--debug-cores changed fig12 stdout"; exit 1; }
grep -q '"per_core"' results/fig12.percore.json \
  || { echo "--per-core emitted no per_core sections"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/fig12.percore.json
[ -s results/fig12.percore.rollup.json ] \
  || { echo "results/fig12.percore.rollup.json was not written"; exit 1; }
grep -q '"folded"' results/fig12.percore.rollup.json \
  || { echo "cycles rollup has no folded stacks"; exit 1; }

echo "==> adversarial stress smoke + JSON lint"
# Two patterns against the full differential case matrix (both devices,
# FCFS vs capped, drain-hysteresis variants): any behavioural-invariant
# violation exits non-zero and leaves results/stress.repro.trace behind
# (uploaded as a CI artifact for replay with `sam-check replay`).
rm -f results/stress.json results/stress.repro.trace
cargo run --release -p sam-bench --bin stress -- \
  row-hit-flood write-burst --jobs 2 --seed 7
[ -f results/stress.json ] || { echo "results/stress.json was not written"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/stress.json

echo "==> shrinker selftest (known-bad config -> minimal replayable repro)"
# Drives the delta-debugging shrinker against inverted hysteresis margins
# (constructible only through the validation-bypassing test hook) and
# verifies the written repro replays to the same violation via sam-check.
cargo run --release -p sam-bench --bin stress -- --shrink-selftest --seed 7
[ -f results/stress.repro.trace ] || { echo "shrink selftest left no repro"; exit 1; }
if cargo run --release -p sam-bench --bin sam-check -- replay results/stress.repro.trace \
    > /tmp/stress.replay.out 2>&1; then
  echo "sam-check replay of the known-bad repro unexpectedly passed"; exit 1
fi
grep -q "WatermarkSupremacy" /tmp/stress.replay.out \
  || { echo "repro replay did not reproduce WatermarkSupremacy"; cat /tmp/stress.replay.out; exit 1; }
# The selftest repro is expected debris, not a CI failure artifact.
rm -f results/stress.repro.trace

echo "==> misspelled flags must be rejected"
if cargo run --release -p sam-bench --bin fig12 -- --cheked >/dev/null 2>&1; then
  echo "fig12 accepted the misspelled flag --cheked"; exit 1
fi

echo "==> observability disabled-overhead gate"
# With sam-obs compiled out (--no-default-features drops bench's `obs`
# feature; `check` stays for the oracle-dependent tools), the datapath
# must run at baseline speed: same golden-scale fig12 measurement, same
# trajectory gate, honoring the same SAM_BENCH_GATE_PCT escape hatch.
# A separate target dir keeps the two feature graphs from thrashing each
# other's incremental caches.
CARGO_TARGET_DIR=target/noobs cargo build --release -p sam-bench \
  --no-default-features --features check --bin fig12
# The compiled-out binary must reject the flags rather than silently
# measure nothing.
if ./target/noobs/release/fig12 --rows 64 --tb-rows 64 --profile >/dev/null 2>&1; then
  echo "compiled-out fig12 accepted --profile"; exit 1
fi
noobs_start_ns="$(date +%s%N)"
./target/noobs/release/fig12 --rows 2048 --tb-rows 8192 --jobs 2 > /tmp/fig12.noobs.out
noobs_wall_ns="$(( $(date +%s%N) - noobs_start_ns ))"
cmp /tmp/fig12.noobs.out tests/golden/fig12.out \
  || { echo "compiled-out fig12 stdout drifted from the golden"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- bench-fig12 results/fig12.json \
  --wall-ns "$noobs_wall_ns" --jobs 2 --label ci-noobs \
  --out results/BENCH_fig12.noobs.json "${bench_gate[@]}"

echo "CI: all gates passed"
