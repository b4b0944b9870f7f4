#!/bin/sh
# bench_json.sh -- emit the PR's tracked benchmark record (BENCH_PR<n>.json).
#
# Runs the wall-clock benchmark set pooled (the shipping configuration)
# and the headline benchmark once more with GGPDES_NOPOOL=1, then writes
# a JSON document recording, per benchmark: ns/op, allocs/op, B/op,
# committed events/op, the simulated event rate, and the *wall-clock*
# committed-event rate (committed/op scaled by ns/op). A "headline"
# block states the pool-off/pool-on allocs/op and ns/op ratios.
# `make bench-json` runs this; the output is committed so later
# changes can diff against it.
#
# Tunables (environment):
#   GO           go binary                      (default: go)
#   PR           record number                  (default: 6)
#   OUT          output path                    (default: BENCH_PR$PR.json)
#   BENCH_REGEX  pooled-set -bench regex        (default: figure + ablation set)
#   HEADLINE     headline -bench regex          (default: Fig2 GG-PDES-Async)
#   BENCHTIME    -benchtime per benchmark       (default: 3x)
set -eu

GO=${GO:-go}
PR=${PR:-6}
OUT=${OUT:-BENCH_PR$PR.json}
BENCH_REGEX=${BENCH_REGEX:-Fig2BalancedPHOLD|Fig4b|AblationPendingQueue|AblationStateSaving}
HEADLINE=${HEADLINE:-Fig2BalancedPHOLD/GG-PDES-Async}
BENCHTIME=${BENCHTIME:-3x}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchjson.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

# run_bench REGEX NOPOOL -> raw `go test -bench` output.
run_bench() {
	GGPDES_NOPOOL="$2" "$GO" test -run '^$' -bench "$1" \
		-benchtime "$BENCHTIME" -benchmem .
}

# to_json < raw bench output -> one JSON object per line (no trailing
# comma handling here; the assembler below joins them).
to_json() {
	awk '/^Benchmark/ {
		delete m
		for (i = 3; i < NF; i += 2) m[$(i+1)] = $i
		wall = (m["ns/op"] > 0) ? m["committed/op"] * 1e9 / m["ns/op"] : 0
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_op\": %s, \"allocs_op\": %s, \"bytes_op\": %s, \"committed_op\": %s, \"ev_s_sim\": %s, \"committed_ev_s_wall\": %.0f}\n", \
			$1, $2, m["ns/op"]+0, m["allocs/op"]+0, m["B/op"]+0, m["committed/op"]+0, m["ev/s(sim)"]+0, wall
	}'
}

join_lines() {
	awk '{ if (NR > 1) printf ",\n"; printf "%s", $0 } END { printf "\n" }' "$1"
}

echo "bench_json: pooled set (-bench '$BENCH_REGEX' -benchtime $BENCHTIME)..." >&2
run_bench "$BENCH_REGEX" "" >"$tmp/pooled.raw"
# The headline A/B gets two fresh `go test` processes so neither side
# inherits the heap grown by the full set above.
echo "bench_json: pooled headline (-bench '$HEADLINE')..." >&2
run_bench "$HEADLINE" "" >"$tmp/pooled_head.raw"
echo "bench_json: pool-off headline (-bench '$HEADLINE')..." >&2
run_bench "$HEADLINE" 1 >"$tmp/nopool.raw"

to_json <"$tmp/pooled.raw" >"$tmp/pooled.json"
to_json <"$tmp/pooled_head.raw" >"$tmp/pooled_head.json"
to_json <"$tmp/nopool.raw" >"$tmp/nopool.json"

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
gover=$("$GO" env GOVERSION 2>/dev/null || echo unknown)

# Headline ratios: match pool-on and pool-off rows of the same
# benchmark and report the first pair (the headline regex normally
# selects exactly one benchmark).
headline=$(awk '
	function metric(line, unit,   re, s) {
		re = "\"" unit "\": [0-9.e+-]+"
		if (match(line, re) == 0) return 0
		s = substr(line, RSTART, RLENGTH)
		sub(/^[^:]*: /, "", s)
		return s + 0
	}
	function name(line,   s) {
		s = line
		sub(/^.*"name": "/, "", s); sub(/".*$/, "", s)
		return s
	}
	NR == FNR { ns[name($0)] = metric($0, "ns_op"); al[name($0)] = metric($0, "allocs_op"); next }
	{
		n = name($0)
		if (!(n in ns) || done) next
		done = 1
		offns = metric($0, "ns_op"); offal = metric($0, "allocs_op")
		printf "{\"benchmark\": \"%s\", \"allocs_op_nopool\": %s, \"allocs_op_pooled\": %s, \"alloc_drop_ratio\": %.2f, \"ns_op_nopool\": %s, \"ns_op_pooled\": %s, \"ns_ratio_pooled_over_nopool\": %.3f}", \
			n, offal, al[n], (al[n] > 0) ? offal / al[n] : 0, offns, ns[n], (offns > 0) ? ns[n] / offns : 0
	}' "$tmp/pooled_head.json" "$tmp/nopool.json")

{
	echo "{"
	echo "  \"pr\": $PR,"
	echo "  \"generated_by\": \"scripts/bench_json.sh\","
	echo "  \"commit\": \"$commit\","
	echo "  \"go\": \"$gover\","
	echo "  \"benchtime\": \"$BENCHTIME\","
	echo "  \"headline\": $headline,"
	echo "  \"pooled\": ["
	join_lines "$tmp/pooled.json"
	echo "  ],"
	echo "  \"nopool\": ["
	join_lines "$tmp/nopool.json"
	echo "  ]"
	echo "}"
} >"$OUT"

echo "bench_json: wrote $OUT" >&2
