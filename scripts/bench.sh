#!/usr/bin/env bash
# Runs the solver criterion benches, aggregates the results into
# BENCH_solver.json (committed so the perf trajectory is recorded PR over
# PR) and checks every speedup gate.
#
# Usage: scripts/bench.sh [output.json]
#
# Every gate is evaluated and printed before the script exits; the exit
# status is non-zero if any gate failed. A failing gate whose ratio was
# already below its floor in the committed baseline — the output file as
# of HEAD, or the file on disk when HEAD has none — is marked as such, so
# a re-run never takes its own earlier output for the baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_solver.json}"
RAW="$(mktemp)"
PREV="$(mktemp)"
TABLE="$(mktemp)"
trap 'rm -f "$RAW" "$PREV" "$TABLE"' EXIT
if ! git show "HEAD:./$OUT" > "$PREV" 2>/dev/null && [ -f "$OUT" ]; then
    cp "$OUT" "$PREV"
fi

BENCHES="solver corner_scaling spectral subspace recycle pool_split"

# One row per ratio: the BENCH_solver.json keys of the numerator median,
# the denominator median and their ratio, the numerator and denominator
# bench ids, and the floor the ratio must reach. A ratio key and floor of
# "-" record the two medians without a gate; a numerator key and id of
# "-" as well record the denominator median alone.
cat > "$TABLE" <<'EOF'
corner_loop_naive_ns        corner_loop_workspace_ns  corner_loop_speedup       corner_loop/naive_alloc_per_call       corner_loop/workspace_pipeline               1.5
corner_sweep_direct_ns      corner_sweep_iterative_ns corner_iterative_speedup  one_robust_iteration/corner_sweep_27sims one_robust_iteration/corner_iterative_27sims 2.0
spectral_naive_recompile_ns spectral_batched_ns       spectral_batch_speedup    broadband_27corner_3wl/naive_recompile broadband_27corner_3wl/batched               2.0
subspace_full_sweep_ns      subspace_adaptive_ns      subspace_speedup          subspace_27corner_3wl/full_sweep       subspace_27corner_3wl/adaptive               1.5
recycle_baseline_ns         recycle_recycled_ns       recycle_speedup           recycle_27corner_3wl/baseline          recycle_27corner_3wl/recycled                1.5
pool_split_16_serial_ns     pool_split_16_pooled_ns   -                         pool_split/cols16_serial               pool_split/cols16_pooled                     -
banded_refactor_fresh_ns    banded_refactor_resumed_ns -                        banded_refactor_80x80/fresh            banded_refactor_80x80/resumed                -
-                           banded_refactor_slab_ns   -                         -                                      banded_refactor_80x80/window_slab            -
banded_refactor_window_lu_ns banded_refactor_window_ldl_ns -                    banded_refactor_80x80/window_lu        banded_refactor_80x80/window_ldl             -
banded_refactor_slab_lu_ns  banded_refactor_slab_ldl_ns -                       banded_refactor_80x80/slab_lu          banded_refactor_80x80/slab_ldl               -
window_solve_full_ns        window_solve_condensed_ns -                         window_solve_80x80/full                window_solve_80x80/condensed                 -
EOF

export BOSON_BENCH_JSON="$RAW"
# Keep the end-to-end corner bench at smoke scale; the micro benches are
# already bounded by their sample sizes.
export BOSON_FAST=1
# Benchmarks measure this host: let the vectorised kernels use its full
# SIMD width (the seed-era scalar reference barely responds to this).
export RUSTFLAGS="${RUSTFLAGS:--C target-cpu=native}"

for bench in $BENCHES; do
    echo "== bench: $bench =="
    cargo bench -p boson-bench --bench "$bench"
done

STATUS=0
awk -v table="$TABLE" -v prev="$PREV" -v out="$OUT" -v suite="$(echo $BENCHES | tr ' ' '+')" '
function val(line, key,   s) {
    s = line
    sub(".*\"" key "\":", "", s)
    sub("[,}].*", "", s)
    return s + 0
}
FILENAME == table {
    if (NF == 6) row[rows++] = $0
    next
}
FILENAME == prev {
    if ($0 ~ /^  "[a-z0-9_]+": [0-9]/) {
        key = $1
        gsub(/[":]/, "", key)
        old[key] = $2 + 0
    }
    next
}
/"id"/ {
    lines[n++] = $0
    id = $0
    sub(/.*"id":"/, "", id)
    sub(/".*/, "", id)
    median[id] = val($0, "median_ns")
}
END {
    printf "{\n  \"suite\": \"%s\",\n  \"results\": [\n", suite > out
    for (i = 0; i < n; i++) printf "    %s%s\n", lines[i], (i < n - 1 ? "," : "") > out
    printf "  ]" > out
    failed = 0
    for (r = 0; r < rows; r++) {
        split(row[r], f, " ")
        num = (f[1] == "-" ? 1 : median[f[4]])
        den = median[f[5]]
        if (!(num > 0 && den > 0)) {
            printf "FAIL  %s: medians of %s / %s missing from bench output\n", (f[3] == "-" ? f[1] : f[3]), f[4], f[5]
            failed++
            continue
        }
        if (f[1] != "-") printf ",\n  \"%s\": %.1f", f[1], num > out
        printf ",\n  \"%s\": %.1f", f[2], den > out
        if (f[3] == "-") continue
        ratio = sprintf("%.3f", num / den)
        printf ",\n  \"%s\": %s", f[3], ratio > out
        if (ratio + 0 >= f[6] + 0) {
            printf "ok    %s = %sx (floor %sx)\n", f[3], ratio, f[6]
        } else {
            failed++
            note = ""
            if (f[3] in old && old[f[3]] < f[6] + 0)
                note = sprintf("; already below the floor in the committed baseline (%.3fx)", old[f[3]])
            printf "FAIL  %s = %sx (floor %sx%s)\n", f[3], ratio, f[6], note
        }
    }
    printf "\n}\n" > out
    exit (failed > 0 ? 1 : 0)
}
' "$TABLE" "$PREV" "$RAW" || STATUS=$?

echo "wrote $OUT"
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: at least one bench gate failed (see above)" >&2
fi
exit "$STATUS"
