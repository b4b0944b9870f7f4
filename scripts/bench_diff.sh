#!/bin/sh
# bench_diff.sh -- before/after benchmark comparison.
#
#   scripts/bench_diff.sh [base-ref]    compare base-ref against the worktree
#   scripts/bench_diff.sh -smoke        pool-off vs pool-on in the worktree
#
# Full mode checks base-ref (default: HEAD) out into a temporary git
# worktree, runs the benchmark set there and in the current tree, and
# prints a benchstat-style before/after table: one row per benchmark
# and unit, with the relative delta. Use it to quantify a performance
# PR against the commit it branched from:
#
#   scripts/bench_diff.sh v0-seed
#
# Smoke mode needs no second checkout: it runs the headline benchmark
# twice in the current tree -- GGPDES_NOPOOL=1 (event/snapshot
# recycling disabled, "before") and pooled (default, "after") -- and
# fails unless pooling still cuts allocs/op by at least MIN_ALLOC_RATIO
# without costing more than MAX_NS_RATIO wall clock. `make ci` runs
# this as the regression tripwire.
#
# Tunables (environment):
#   GO              go binary                  (default: go)
#   BENCH_REGEX     full-mode -bench regex    (default: figure + ablation set)
#   SMOKE_REGEX     smoke-mode -bench regex   (default: Fig2 GG-PDES-Async)
#   BENCHTIME       -benchtime per benchmark  (default: 3x)
#   MIN_ALLOC_RATIO smoke: required before/after allocs/op ratio (default: 2.0)
#   MAX_NS_RATIO    smoke: allowed after/before ns/op ratio      (default: 1.25)
set -eu

GO=${GO:-go}
BENCH_REGEX=${BENCH_REGEX:-Fig2BalancedPHOLD|Fig4b|AblationPendingQueue|AblationStateSaving}
SMOKE_REGEX=${SMOKE_REGEX:-Fig2BalancedPHOLD/GG-PDES-Async}
BENCHTIME=${BENCHTIME:-3x}
MIN_ALLOC_RATIO=${MIN_ALLOC_RATIO:-2.0}
MAX_NS_RATIO=${MAX_NS_RATIO:-1.25}

usage() {
	echo "usage: scripts/bench_diff.sh [-smoke] [base-ref]" >&2
	exit 2
}

# run_bench DIR REGEX NOPOOL -> lines of "<benchmark>|<unit> <value>".
# Go prints each benchmark as: name iterations {value unit}...; the
# awk body explodes the unit pairs so before/after runs can be joined
# on "benchmark|unit" keys regardless of which metrics a benchmark
# reports.
run_bench() {
	(cd "$1" && GGPDES_NOPOOL="$3" "$GO" test -run '^$' -bench "$2" \
		-benchtime "$BENCHTIME" -benchmem .) |
		awk '/^Benchmark/ { for (i = 3; i < NF; i += 2) print $1 "|" $(i+1), $i }'
}

# diff_table BEFORE_FILE AFTER_FILE LABEL_BEFORE LABEL_AFTER
diff_table() {
	awk -v lb="$3" -v la="$4" '
		NR == FNR { before[$1] = $2; order[n++] = $1; next }
		{ after[$1] = $2 }
		END {
			printf "%-55s %-12s %14s %14s %9s\n", "benchmark", "unit", lb, la, "delta"
			for (i = 0; i < n; i++) {
				k = order[i]
				if (!(k in after)) continue
				split(k, parts, "|")
				name = parts[1]; unit = parts[2]
				sub(/^Benchmark/, "", name)
				d = (before[k] != 0) ? (after[k] - before[k]) / before[k] * 100 : 0
				printf "%-55s %-12s %14s %14s %+8.1f%%\n", name, unit, before[k], after[k], d
			}
		}' "$1" "$2"
}

smoke() {
	tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchdiff.XXXXXX")
	trap 'rm -rf "$tmp"' EXIT INT TERM

	echo "bench_diff -smoke: $SMOKE_REGEX at -benchtime $BENCHTIME" >&2
	echo "  running with GGPDES_NOPOOL=1 (recycling off)..." >&2
	run_bench . "$SMOKE_REGEX" 1 >"$tmp/before"
	echo "  running pooled (default)..." >&2
	run_bench . "$SMOKE_REGEX" "" >"$tmp/after"

	diff_table "$tmp/before" "$tmp/after" "pool-off" "pool-on"

	# Assert the pooling win holds: allocs/op must drop by
	# MIN_ALLOC_RATIO and ns/op must not regress past MAX_NS_RATIO.
	awk -v minalloc="$MIN_ALLOC_RATIO" -v maxns="$MAX_NS_RATIO" '
		NR == FNR { before[$1] = $2; next }
		{ after[$1] = $2 }
		END {
			ok = 1
			for (k in before) {
				if (!(k in after)) continue
				if (k ~ /\|allocs\/op$/) {
					if (after[k] * minalloc > before[k]) {
						printf "FAIL %s: pooled %s allocs/op vs %s off -- less than %sx drop\n", k, after[k], before[k], minalloc
						ok = 0
					}
				} else if (k ~ /\|ns\/op$/) {
					if (after[k] > before[k] * maxns) {
						printf "FAIL %s: pooled %s ns/op vs %s off -- exceeds %sx budget\n", k, after[k], before[k], maxns
						ok = 0
					}
				}
			}
			if (ok) print "bench_diff -smoke: OK (allocs/op drop >= " minalloc "x, ns/op within " maxns "x)"
			exit ok ? 0 : 1
		}' "$tmp/before" "$tmp/after"
}

full() {
	base=$1
	if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
		echo "bench_diff: unknown git ref $base" >&2
		exit 2
	fi
	tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchdiff.XXXXXX")
	trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT INT TERM
	echo "bench_diff: $base vs worktree, -bench '$BENCH_REGEX' -benchtime $BENCHTIME" >&2
	git worktree add --quiet --detach "$tmp/base" "$base"

	echo "  running base ($base)..." >&2
	run_bench "$tmp/base" "$BENCH_REGEX" "" >"$tmp/before"
	echo "  running worktree..." >&2
	run_bench . "$BENCH_REGEX" "" >"$tmp/after"

	diff_table "$tmp/before" "$tmp/after" "$base" "worktree"
}

case "${1:-HEAD}" in
-smoke)
	[ $# -le 1 ] || usage
	smoke
	;;
-*)
	usage
	;;
*)
	full "${1:-HEAD}"
	;;
esac
