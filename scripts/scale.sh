#!/usr/bin/env bash
# scale.sh — measure the executor scaling curve and emit a BENCH-schema
# JSON record.
#
# Usage: scripts/scale.sh smoke|full out.json
#
#   smoke  tiny experiment, two sweep points per executor (CI tripwire)
#   full   benchmark scale, Jobs/Shards = 1,2,4,8
#
# The output path is required, so a run never overwrites the checked-in
# BENCH_pr10.json record by default.
#
# Builds cmd/pushbench once, then wall-clocks `pushbench -exp fig2b`
# under the in-process pool (-jobs sweep) and the multiprocess executor
# (-executor multiprocess -shards sweep). Every run's table output is
# diffed against the sequential baseline before its time is recorded, so
# a scaling win can never be bought with a behavior change. Results use
# the bench.sh JSON schema (name/iterations/ns_per_op + executor/shards
# per result, gomaxprocs/num_cpu at the top) so the perf-trajectory
# tooling reads both files the same way; wall-clock rows carry
# bytes_per_op/allocs_per_op null.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

usage() {
	echo "usage: $0 smoke|full out.json" >&2
	exit 2
}
[ $# -eq 2 ] || usage
mode="$1"
out="$2"

case "$mode" in
smoke)
	nsites=2 runs=2
	jobs_sweep=(1 2)
	shards_sweep=(1 2)
	;;
full)
	nsites=8 runs=3
	jobs_sweep=(1 2 4 8)
	shards_sweep=(1 2 4 8)
	;;
*) usage ;;
esac

bin="$(mktemp -d)/pushbench"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/pushbench

ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
gomaxprocs="${GOMAXPROCS:-$ncpu}"

base="$(dirname "$bin")/base.txt"
got="$(dirname "$bin")/got.txt"
"$bin" -exp fig2b -nsites "$nsites" -runs "$runs" -jobs 1 >"$base"

# timed <name> <executor> <shards> <pushbench flags...>
# Runs one configuration, requires byte-identical tables, records wall
# clock in ns.
recs=()
timed() {
	local name="$1" executor="$2" shards="$3"
	shift 3
	local t0 t1
	t0="$(date +%s%N)"
	"$bin" -exp fig2b -nsites "$nsites" -runs "$runs" "$@" >"$got"
	t1="$(date +%s%N)"
	if ! diff -q "$base" "$got" >/dev/null; then
		echo "scale.sh: $name output diverged from sequential baseline:" >&2
		diff "$base" "$got" >&2 || true
		exit 1
	fi
	local ns=$((t1 - t0))
	recs+=("$(printf '    {"name": "%s", "iterations": 1, "ns_per_op": %s, "bytes_per_op": null, "allocs_per_op": null, "executor": "%s", "shards": %s}' \
		"$name" "$ns" "$executor" "$shards")")
	echo "$name: $((ns / 1000000)) ms"
}

for j in "${jobs_sweep[@]}"; do
	timed "ScaleFig2b/Jobs=$j" inprocess 1 -jobs "$j"
done
for s in "${shards_sweep[@]}"; do
	timed "ScaleFig2b/Multiprocess/Shards=$s" multiprocess "$s" \
		-jobs 1 -executor multiprocess -shards "$s"
done

{
	printf '{\n  "mode": "%s",\n  "gomaxprocs": %s,\n  "num_cpu": %s,\n  "results": [\n' "$mode" "$gomaxprocs" "$ncpu"
	for i in "${!recs[@]}"; do
		sep=","
		[ "$i" -eq $((${#recs[@]} - 1)) ] && sep=""
		printf '%s%s\n' "${recs[$i]}" "$sep"
	done
	printf '  ]\n}\n'
} >"$out"

echo "wrote $out"
