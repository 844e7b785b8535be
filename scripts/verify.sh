#!/usr/bin/env bash
# Repo verification: offline build, lints, formatting, full test
# suite, and the determinism contract of the ndc-par runtime —
# `ndc-eval` output (including the `--metrics` observability dump)
# must be bit-identical whether the experiment fan-out runs on one
# thread or eight.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustfmt (check) =="
cargo fmt --check

echo "== tests (offline) =="
cargo test -q --offline --workspace

EVAL=target/release/ndc-eval

# Every run below leaves its files in one temp directory.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Perf-regression gate: the scale/fuse/bench stages below regenerate
# BENCH_*.json in place, so save the committed baselines aside first;
# each regenerated file is gated against its committed counterpart
# (simulated counters exact, wall clock within 10x). Rebase with
# NDC_BENCH_REBASE=1 after an intentional behaviour change.
for f in BENCH_scale.json BENCH_fusion.json BENCH_fig4_schemes.json BENCH_model_accuracy.json \
    BENCH_compiler_passes.json BENCH_fig4.json BENCH_substrate_micro.json; do
    cp "$f" "$tmp/base_$f"
done

# same_across_threads NAME CMD...: run CMD under NDC_THREADS=1 and =8
# and fail unless the two stdouts are byte-identical; they stay in
# $tmp/NAME.1 and $tmp/NAME.8. An argument @SIDE@ becomes a per-run
# side file, $tmp/NAME.side.1 / .8, which must match too. Set FILTER to
# a command to compare only what it keeps of each stdout.
same_across_threads() {
    local name=$1 t a
    shift
    for t in 1 8; do
        local args=()
        for a in "$@"; do
            args+=("${a//@SIDE@/$tmp/$name.side.$t}")
        done
        NDC_THREADS=$t "${args[@]}" > "$tmp/$name.$t"
    done
    if ! cmp -s <(${FILTER:-cat} < "$tmp/$name.1") <(${FILTER:-cat} < "$tmp/$name.8"); then
        echo "FAIL: $name output differs across thread counts" >&2
        diff <(head -c 2000 "$tmp/$name.1") <(head -c 2000 "$tmp/$name.8") | head -20 >&2
        exit 1
    fi
    if [ -e "$tmp/$name.side.1" ] && ! cmp -s "$tmp/$name.side.1" "$tmp/$name.side.8"; then
        echo "FAIL: $name side output differs across thread counts" >&2
        diff <(head -c 2000 "$tmp/$name.side.1") <(head -c 2000 "$tmp/$name.side.8") | head -20 >&2
        exit 1
    fi
    echo "ok: $name output byte-identical across thread counts"
}

echo "== determinism: NDC_THREADS=1 vs NDC_THREADS=8 =="
# fig4 plus its --metrics observability dump (the side file).
same_across_threads fig4 "$EVAL" fig4 --scale test --metrics @SIDE@

echo "== headline: paper-scale Figure 4 + BENCH_fig4.json =="
# The reproduction itself: every program's improvement under all nine
# schemes and the simulated cycles behind each, gated exactly against
# the committed baseline (the file has no wall-clock keys).
same_across_threads fig4-paper "$EVAL" fig4 --scale paper
cat "$tmp/fig4-paper.1"
"$EVAL" gate --baseline "$tmp/base_BENCH_fig4.json" --current BENCH_fig4.json

echo "== determinism: fig13 NDC_THREADS=1 vs NDC_THREADS=8 =="
same_across_threads fig13 "$EVAL" fig13 --scale test

echo "== determinism: explain NDC_THREADS=1 vs NDC_THREADS=8 =="
same_across_threads explain "$EVAL" explain --scale test --bench kdtree

echo "== model accuracy: reuse-based cost model vs legacy heuristic =="
# The full explain sweep (every workload x every NDC location) emits
# BENCH_model_accuracy.json with mean/max absolute relative error for
# both the reuse-based model and the retired heuristic. The sweep's
# --json document must be byte-identical across thread counts, the
# artifact must attest the reuse model's mean error beats the legacy
# one, and the regenerated file is gated against the committed
# baseline like every other BENCH artifact.
same_across_threads explain-json "$EVAL" explain --scale test --json
test -s BENCH_model_accuracy.json || { echo "FAIL: BENCH_model_accuracy.json missing" >&2; exit 1; }
grep -q '"model_beats_legacy":true' BENCH_model_accuracy.json \
    || { echo "FAIL: reuse model does not beat the legacy heuristic" >&2; exit 1; }
grep -q '"rows"' BENCH_model_accuracy.json \
    || { echo "FAIL: BENCH_model_accuracy.json has no accuracy rows" >&2; exit 1; }
"$EVAL" gate --baseline "$tmp/base_BENCH_model_accuracy.json" --current BENCH_model_accuracy.json

# The `check` stage below also runs the span-attribution invariant:
# CheckLevel::full() samples request spans and asserts child spans +
# queue/stall residue sum exactly to each root latency.
echo "== correctness layer: oracle + invariants + fault matrix =="
"$EVAL" check --scale test

echo "== static legality: lint verdicts, certificates, fault matrix =="
same_across_threads lint "$EVAL" lint --scale test
cat "$tmp/lint.1"

echo "== mesh scale-up: lane engine determinism + BENCH_scale.json =="
# Fast mode: 8x8 mesh only, lane counts {1, 2}. The subcommand itself
# asserts the lane engine's SimResult is byte-identical across lane
# counts; here we additionally pin the *printed study* (tables include
# simulated cycles and instruction counts, but also host timings, which
# the filter drops) across NDC_THREADS.
simulated_columns() { grep -v "host ms\|insts/sec\|speedup" | cut -c1-60; }
FILTER=simulated_columns same_across_threads scale env NDC_BENCH_FAST=1 "$EVAL" scale
test -s BENCH_scale.json || { echo "FAIL: BENCH_scale.json missing" >&2; exit 1; }
grep -q '"deterministic_across_lanes":true' BENCH_scale.json \
    || { echo "FAIL: BENCH_scale.json missing determinism attestation" >&2; exit 1; }
grep -q '"rows"' BENCH_scale.json \
    || { echo "FAIL: BENCH_scale.json has no measurement rows" >&2; exit 1; }
"$EVAL" gate --baseline "$tmp/base_BENCH_scale.json" --current BENCH_scale.json

echo "== operator fusion: fused-vs-unfused report + BENCH_fusion.json =="
# Compiles every workload twice (fusion off/on), simulates both
# schedules, and reports predicted bytes moved and measured offload
# cycles. Deterministic across thread counts; the emitted JSON must
# attest that fusion fired and that some workload reduced both bytes
# and offload cycles.
same_across_threads fuse "$EVAL" fuse --scale test
cat "$tmp/fuse.1"
test -s BENCH_fusion.json || { echo "FAIL: BENCH_fusion.json missing" >&2; exit 1; }
grep -q '"scale":"Test","fused_chains":0,' BENCH_fusion.json \
    && { echo "FAIL: BENCH_fusion.json reports zero fused chains overall" >&2; exit 1; }
grep -q '"workloads_reduced_bytes_and_cycles":0' BENCH_fusion.json \
    && { echo "FAIL: no workload reduced both bytes moved and offload cycles" >&2; exit 1; }
grep -q '"rows"' BENCH_fusion.json \
    || { echo "FAIL: BENCH_fusion.json has no per-workload rows" >&2; exit 1; }
"$EVAL" gate --baseline "$tmp/base_BENCH_fusion.json" --current BENCH_fusion.json

echo "== seeded fuzzing: full pipeline, deterministic across thread counts =="
# A fixed 512-seed corpus through generator -> verifier/bounds ->
# layout -> compilers -> lint -> oracle -> checked simulator -> the
# fusion stage (fused compile, certificates, oracle, checked sim). The
# subcommand exits 1 on any divergence, violation, or panic (printing
# the reproducing seed); here we additionally pin the whole report
# across NDC_THREADS and assert the emitted corpus table attests a
# clean run.
same_across_threads fuzz "$EVAL" fuzz --count 512 --seed 7
cat "$tmp/fuzz.1"
test -s BENCH_fuzz_corpus.json || { echo "FAIL: BENCH_fuzz_corpus.json missing" >&2; exit 1; }
grep -q '"clean":true' BENCH_fuzz_corpus.json \
    || { echo "FAIL: BENCH_fuzz_corpus.json does not attest a clean run" >&2; exit 1; }
grep -q '"classes"' BENCH_fuzz_corpus.json \
    || { echo "FAIL: BENCH_fuzz_corpus.json has no corpus table" >&2; exit 1; }

echo "== profile: tenant attribution deterministic across thread counts =="
same_across_threads profile "$EVAL" profile --scale test --tenants 2 --json

echo "== bench harness smoke (appends BENCH_fig4_schemes.json) =="
NDC_BENCH_FAST=1 cargo bench --offline -p bench --bench fig4_schemes
test -s BENCH_fig4_schemes.json || { echo "FAIL: BENCH_fig4_schemes.json missing" >&2; exit 1; }
"$EVAL" gate --baseline "$tmp/base_BENCH_fig4_schemes.json" --current BENCH_fig4_schemes.json

echo "== compiler pass benches (appends BENCH_compiler_passes.json) =="
# Paper-scale Algorithm 1/2 and lowering: the compiler's decisions
# (planned, fused chains, trace instructions) gate exactly, the wall
# times within the gate's ratio.
NDC_BENCH_FAST=1 cargo bench --offline -p bench --bench compiler_passes
test -s BENCH_compiler_passes.json || { echo "FAIL: BENCH_compiler_passes.json missing" >&2; exit 1; }
"$EVAL" gate --baseline "$tmp/base_BENCH_compiler_passes.json" --current BENCH_compiler_passes.json

echo "== substrate micro benches (appends BENCH_substrate_micro.json) =="
# Caches, DRAM, NoC, whole accesses, coherence invalidations, the
# ready queue and signature selection: what the write-invalidate cases
# simulate gates exactly, every wall time within the gate's ratio.
NDC_BENCH_FAST=1 cargo bench --offline -p bench --bench substrate_micro
test -s BENCH_substrate_micro.json || { echo "FAIL: BENCH_substrate_micro.json missing" >&2; exit 1; }
"$EVAL" gate --baseline "$tmp/base_BENCH_substrate_micro.json" --current BENCH_substrate_micro.json

echo "== all checks passed =="
