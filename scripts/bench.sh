#!/usr/bin/env bash
# bench.sh — run the perf-trajectory benchmarks and emit a JSON record.
#
# Usage: scripts/bench.sh smoke|full out.json
#
#   smoke  one iteration per benchmark (CI: proves the harness works)
#   full   timed runs (override duration with BENCHTIME=5s)
#
# The output path is required: the checked-in BENCH_prN.json files are
# records of past PRs (each wraps two of these records, "before"/"after"
# a refactor), and a default naming one of them would overwrite it.
# Performance claims are measured with `go run ./bench`
# (see BENCHMARK.json); this script keeps the older `go test -bench`
# trajectory readable. The benchmark set includes the
# Jobs=1/2/4/8 engine sweep plus its Multiprocess/Shards=1/2/4/8 twin,
# so both executors' scaling curves are part of every record; each
# result carries executor/shards fields, and the JSON carries
# gomaxprocs/num_cpu so a 1-core container run (where in-process Jobs>1
# cannot show wall-clock speedup) is machine-readable.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

usage() {
	echo "usage: $0 smoke|full out.json" >&2
	exit 2
}
[ $# -eq 2 ] || usage
mode="$1"
out="$2"

args=(-run '^$' -bench 'PageLoad|ScenarioSweep|Engine|Population' -benchmem)
case "$mode" in
smoke) args+=(-benchtime 1x) ;;
full) args+=(-benchtime "${BENCHTIME:-2s}") ;;
*) usage ;;
esac

ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"

txt="$(go test "${args[@]}" .)"
printf '%s\n' "$txt"

printf '%s\n' "$txt" | awk -v mode="$mode" -v ncpu="$ncpu" '
/^Benchmark/ {
	name = $1
	# The -N suffix on benchmark names is GOMAXPROCS for the run; Go
	# omits it entirely when GOMAXPROCS is 1.
	if (match(name, /-[0-9]+$/)) {
		gomaxprocs = substr(name, RSTART + 1)
		sub(/-[0-9]+$/, "", name)
	} else if (gomaxprocs == "") {
		gomaxprocs = 1
	}
	iters = $2
	ns = "null"; bytes = "null"; allocs = "null"
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	# Execution backend, from the sub-benchmark name: the engine sweep
	# runs a Multiprocess/Shards=N leg next to the in-process Jobs=N
	# legs, and the scaling records must be separable downstream.
	executor = (name ~ /Multiprocess/) ? "multiprocess" : "inprocess"
	shards = 1
	if (match(name, /Shards=[0-9]+/)) shards = substr(name, RSTART + 7, RLENGTH - 7)
	recs[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"executor\": \"%s\", \"shards\": %s}", \
		name, iters, ns, bytes, allocs, executor, shards)
}
END {
	if (gomaxprocs == "") gomaxprocs = "null"
	printf "{\n  \"mode\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"num_cpu\": %s,\n  \"results\": [\n", mode, gomaxprocs, ncpu
	for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n - 1 ? "," : "")
	printf "  ]\n}\n"
}' >"$out"

echo "wrote $out"
