#!/bin/sh
# determinism_smoke.sh — end-to-end determinism check behind
# `make determinism-smoke`.
#
# Runs the same seeded PHOLD configuration twice and requires the full
# verbose report — results, percentile lines, and every telemetry
# histogram — to be byte-identical. This is the guarantee ggvet's
# determinism pass protects at the source level, asserted at the
# binary's mouth: everything ggsim prints derives from simulated
# machine time, so any divergence means ambient nondeterminism leaked
# into the core. The per-GVT-round series CSVs must match too.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

$GO build -o "$dir/ggsim" ./cmd/ggsim

# run <subdir> [extra flags...] — the series CSV is written under the
# subdir as a relative path so the "series written to" report line is
# identical across runs.
run() {
    sub=$1
    shift
    mkdir -p "$dir/$sub"
    (cd "$dir/$sub" && "$dir/ggsim" -model phold -threads 16 -end 40 -seed 1337 \
        -v -hist -series series.csv "$@")
}

run a >"$dir/run1.txt" 2>&1
run b >"$dir/run2.txt" 2>&1

if ! diff -u "$dir/run1.txt" "$dir/run2.txt" >"$dir/diff.txt"; then
    echo "determinism-smoke: identical seeded runs diverged:" >&2
    cat "$dir/diff.txt" >&2
    exit 1
fi

if ! diff -u "$dir/a/series.csv" "$dir/b/series.csv" >"$dir/diff.txt"; then
    echo "determinism-smoke: identical seeded runs wrote diverging series CSVs:" >&2
    cat "$dir/diff.txt" >&2
    exit 1
fi
echo "determinism-smoke: seeded runs byte-identical ($(wc -l <"$dir/run1.txt") report lines, $(wc -l <"$dir/a/series.csv") series rows)"
