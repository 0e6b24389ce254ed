#!/usr/bin/env bash
# Runs the solver + corner_scaling criterion benches and aggregates the
# results into BENCH_solver.json (committed so the perf trajectory is
# recorded PR over PR).
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_solver.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

export BOSON_BENCH_JSON="$RAW"
# Keep the end-to-end corner bench at smoke scale; the micro benches are
# already bounded by their sample sizes.
export BOSON_FAST=1
# Benchmarks measure this host: let the vectorised kernels use its full
# SIMD width (the seed-era scalar reference barely responds to this).
export RUSTFLAGS="${RUSTFLAGS:--C target-cpu=native}"

echo "== bench: solver =="
cargo bench -p boson-bench --bench solver
echo "== bench: corner_scaling =="
cargo bench -p boson-bench --bench corner_scaling
echo "== bench: spectral =="
cargo bench -p boson-bench --bench spectral
echo "== bench: subspace =="
cargo bench -p boson-bench --bench subspace
echo "== bench: large_grid =="
cargo bench -p boson-bench --bench large_grid
echo "== bench: recycle =="
cargo bench -p boson-bench --bench recycle
echo "== bench: pool_split =="
cargo bench -p boson-bench --bench pool_split
echo "== bench: mg_parallel =="
cargo bench -p boson-bench --bench mg_parallel

# Aggregate the JSON lines and compute the acceptance ratio
# (naïve allocate-per-call corner loop vs the workspace pipeline).
awk '
function val(line, key,   s) {
    s = line
    sub(".*\"" key "\":", "", s)
    sub("[,}].*", "", s)
    return s + 0
}
/"id"/ {
    lines[n++] = $0
    id = $0
    sub(/.*"id":"/, "", id)
    sub(/".*/, "", id)
    median[id] = val($0, "median_ns")
}
END {
    printf "{\n  \"suite\": \"solver+corner_scaling+spectral+subspace+large_grid+recycle+pool_split+mg_parallel\",\n  \"results\": [\n"
    for (i = 0; i < n; i++) printf "    %s%s\n", lines[i], (i < n - 1 ? "," : "")
    printf "  ]"
    naive = median["corner_loop/naive_alloc_per_call"]
    fast = median["corner_loop/workspace_pipeline"]
    if (naive > 0 && fast > 0) {
        printf ",\n  \"corner_loop_naive_ns\": %.1f", naive
        printf ",\n  \"corner_loop_workspace_ns\": %.1f", fast
        printf ",\n  \"corner_loop_speedup\": %.3f", naive / fast
    }
    direct = median["one_robust_iteration/corner_sweep_27sims"]
    iter = median["one_robust_iteration/corner_iterative_27sims"]
    if (direct > 0 && iter > 0) {
        printf ",\n  \"corner_sweep_direct_ns\": %.1f", direct
        printf ",\n  \"corner_sweep_iterative_ns\": %.1f", iter
        printf ",\n  \"corner_iterative_speedup\": %.3f", direct / iter
    }
    naive_wl = median["broadband_27corner_3wl/naive_recompile"]
    batched_wl = median["broadband_27corner_3wl/batched"]
    if (naive_wl > 0 && batched_wl > 0) {
        printf ",\n  \"spectral_naive_recompile_ns\": %.1f", naive_wl
        printf ",\n  \"spectral_batched_ns\": %.1f", batched_wl
        printf ",\n  \"spectral_batch_speedup\": %.3f", naive_wl / batched_wl
    }
    sub_full = median["subspace_27corner_3wl/full_sweep"]
    sub_adap = median["subspace_27corner_3wl/adaptive"]
    if (sub_full > 0 && sub_adap > 0) {
        printf ",\n  \"subspace_full_sweep_ns\": %.1f", sub_full
        printf ",\n  \"subspace_adaptive_ns\": %.1f", sub_adap
        printf ",\n  \"subspace_speedup\": %.3f", sub_full / sub_adap
    }
    lg_direct = median["large_grid_256/direct_factor_solve"]
    lg_mg = median["large_grid_256/multigrid_iterative"]
    if (lg_direct > 0 && lg_mg > 0) {
        printf ",\n  \"large_grid_direct_ns\": %.1f", lg_direct
        printf ",\n  \"large_grid_multigrid_ns\": %.1f", lg_mg
        printf ",\n  \"large_grid_speedup\": %.3f", lg_direct / lg_mg
    }
    rec_base = median["recycle_27corner_3wl/baseline"]
    rec_on = median["recycle_27corner_3wl/recycled"]
    if (rec_base > 0 && rec_on > 0) {
        printf ",\n  \"recycle_baseline_ns\": %.1f", rec_base
        printf ",\n  \"recycle_recycled_ns\": %.1f", rec_on
        printf ",\n  \"recycle_speedup\": %.3f", rec_base / rec_on
    }
    ps_serial = median["pool_split/cols16_serial"]
    ps_pooled = median["pool_split/cols16_pooled"]
    if (ps_serial > 0 && ps_pooled > 0) {
        printf ",\n  \"pool_split_16_serial_ns\": %.1f", ps_serial
        printf ",\n  \"pool_split_16_pooled_ns\": %.1f", ps_pooled
    }
    mg_serial = median["mg_parallel_256/fused_mg_serial"]
    mg_pooled = median["mg_parallel_256/fused_mg_4workers"]
    if (mg_serial > 0 && mg_pooled > 0) {
        printf ",\n  \"mg_parallel_serial_ns\": %.1f", mg_serial
        printf ",\n  \"mg_parallel_4workers_ns\": %.1f", mg_pooled
        printf ",\n  \"mg_parallel_speedup\": %.3f", mg_serial / mg_pooled
    }
    printf "\n}\n"
}
' "$RAW" > "$OUT"

echo
echo "wrote $OUT"
SPEEDUP=$(awk '/corner_loop_speedup/ { s = $0; sub(/.*: /, "", s); sub(/,.*/, "", s); print s }' "$OUT")
if [ -n "${SPEEDUP:-}" ]; then
    echo "corner-loop speedup (naive / workspace): ${SPEEDUP}x"
    awk -v s="$SPEEDUP" 'BEGIN { exit (s >= 1.5 ? 0 : 1) }' \
        || { echo "FAIL: speedup ${SPEEDUP}x below the 1.5x acceptance floor" >&2; exit 1; }
else
    echo "FAIL: corner_loop medians missing from bench output" >&2
    exit 1
fi
ITER_SPEEDUP=$(awk '/corner_iterative_speedup/ { s = $0; sub(/.*: /, "", s); sub(/,.*/, "", s); print s }' "$OUT")
if [ -n "${ITER_SPEEDUP:-}" ]; then
    echo "corner-sweep speedup (direct / preconditioned-iterative): ${ITER_SPEEDUP}x"
    awk -v s="$ITER_SPEEDUP" 'BEGIN { exit (s >= 2.0 ? 0 : 1) }' \
        || { echo "FAIL: iterative corner-sweep speedup ${ITER_SPEEDUP}x below the 2.0x acceptance floor" >&2; exit 1; }
else
    echo "FAIL: corner-sweep medians missing from bench output" >&2
    exit 1
fi
SPECTRAL_SPEEDUP=$(awk '/spectral_batch_speedup/ { s = $0; sub(/.*: /, "", s); sub(/,.*/, "", s); print s }' "$OUT")
if [ -n "${SPECTRAL_SPEEDUP:-}" ]; then
    echo "broadband sweep speedup (recompile-per-wl / batched spectral): ${SPECTRAL_SPEEDUP}x"
    awk -v s="$SPECTRAL_SPEEDUP" 'BEGIN { exit (s >= 2.0 ? 0 : 1) }' \
        || { echo "FAIL: spectral batch speedup ${SPECTRAL_SPEEDUP}x below the 2.0x acceptance floor" >&2; exit 1; }
else
    echo "FAIL: broadband_27corner_3wl medians missing from bench output" >&2
    exit 1
fi
SUBSPACE_SPEEDUP=$(awk '/subspace_speedup/ { s = $0; sub(/.*: /, "", s); sub(/,.*/, "", s); print s }' "$OUT")
if [ -n "${SUBSPACE_SPEEDUP:-}" ]; then
    echo "adaptive subspace iteration speedup (full sweep / adaptive M=27-of-81): ${SUBSPACE_SPEEDUP}x"
    awk -v s="$SUBSPACE_SPEEDUP" 'BEGIN { exit (s >= 1.5 ? 0 : 1) }' \
        || { echo "FAIL: subspace speedup ${SUBSPACE_SPEEDUP}x below the 1.5x acceptance floor" >&2; exit 1; }
else
    echo "FAIL: subspace_27corner_3wl medians missing from bench output" >&2
    exit 1
fi
LG_SPEEDUP=$(awk '/large_grid_speedup/ { s = $0; sub(/.*: /, "", s); sub(/,.*/, "", s); print s }' "$OUT")
if [ -n "${LG_SPEEDUP:-}" ]; then
    echo "large-grid 256x256 speedup (banded-direct / multigrid-iterative): ${LG_SPEEDUP}x"
    awk -v s="$LG_SPEEDUP" 'BEGIN { exit (s >= 3.0 ? 0 : 1) }' \
        || { echo "FAIL: large-grid speedup ${LG_SPEEDUP}x below the 3.0x acceptance floor" >&2; exit 1; }
else
    echo "FAIL: large_grid_256 medians missing from bench output" >&2
    exit 1
fi
RECYCLE_SPEEDUP=$(awk '/recycle_speedup/ { s = $0; sub(/.*: /, "", s); sub(/,.*/, "", s); print s }' "$OUT")
if [ -n "${RECYCLE_SPEEDUP:-}" ]; then
    echo "temporal-axis iteration speedup (eager cold-start / recycled+lagged): ${RECYCLE_SPEEDUP}x"
    awk -v s="$RECYCLE_SPEEDUP" 'BEGIN { exit (s >= 1.5 ? 0 : 1) }' \
        || { echo "FAIL: recycle speedup ${RECYCLE_SPEEDUP}x below the 1.5x acceptance floor" >&2; exit 1; }
else
    echo "FAIL: recycle_27corner_3wl medians missing from bench output" >&2
    exit 1
fi
MG_PAR_SPEEDUP=$(awk '/mg_parallel_speedup/ { s = $0; sub(/.*: /, "", s); sub(/,.*/, "", s); print s }' "$OUT")
# The 4-worker MG gate only means something when the host can actually
# run 4 lanes concurrently: on fewer CPUs the pool inlines every part on
# the caller's thread and both sides measure the same serial sweep, so
# the gate degrades to reporting the measured ratio.
HOST_CPUS=$(nproc 2>/dev/null || echo 1)
if [ -n "${MG_PAR_SPEEDUP:-}" ]; then
    echo "parallel-multigrid 256x256 speedup (serial MG sweep / 4-worker MG sweep): ${MG_PAR_SPEEDUP}x"
    if [ "$HOST_CPUS" -ge 4 ]; then
        awk -v s="$MG_PAR_SPEEDUP" 'BEGIN { exit (s >= 2.0 ? 0 : 1) }' \
            || { echo "FAIL: parallel-multigrid speedup ${MG_PAR_SPEEDUP}x below the 2.0x acceptance floor" >&2; exit 1; }
    else
        echo "SKIP: mg_parallel_speedup floor not enforced on a ${HOST_CPUS}-CPU host (needs >= 4 CPUs for 4 worker lanes)"
    fi
else
    echo "FAIL: mg_parallel_256 medians missing from bench output" >&2
    exit 1
fi
