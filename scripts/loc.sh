#!/usr/bin/env bash
# Lines of Rust per crate, for tracking the size of the code base PR over
# PR. Print-only: it never fails on a count.
#
#   scripts/loc.sh
#
# `src` is every `.rs` line under the crate's `src/` (inline
# `#[cfg(test)]` unit tests included), `tests` the integration tests under
# `tests/`, and `other` the `benches/` and `examples/` trees. The facade
# crate is the repo root; `e2ebench` and the `vendor/` stubs are crates of
# their own.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    local dir=$1
    if [ -d "$dir" ]; then
        find "$dir" -name '*.rs' -type f -print0 | xargs -0 -r cat | wc -l
    else
        echo 0
    fi
}

printf '%-22s %8s %8s %8s %8s\n' crate src tests other total
{
    for crate in . crates/* e2ebench vendor/*; do
        [ -f "$crate/Cargo.toml" ] || continue
        src=$(count "$crate/src")
        tests=$(count "$crate/tests")
        other=$(( $(count "$crate/benches") + $(count "$crate/examples") ))
        name=$crate
        [ "$crate" = . ] && name="boson1 (root)"
        printf '%s\t%d\t%d\t%d\n' "$name" "$src" "$tests" "$other"
    done
} | awk -F '\t' '
    { t = $2 + $3 + $4
      printf "%-22s %8d %8d %8d %8d\n", $1, $2, $3, $4, t
      s += $2; u += $3; o += $4 }
    END { printf "%-22s %8d %8d %8d %8d\n", "all", s, u, o, s + u + o }'
