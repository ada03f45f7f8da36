#!/usr/bin/env bash
# Entry point of the benchmark for the driver (the "command" of
# BENCHMARK.json), run from the root of a checkout:
#
#   bash bench/run.sh --workload first_page --seed 7 --seconds 10 --trace 0
#
# It compiles the benchmark itself and then hands over to it; the benchmark
# compiles the ctxsearch binary it measures. Everything the go tool writes —
# its build cache included — stays inside the checkout, under .bench_build/.
# In a directory without the program's sources it exits non-zero without
# printing a result.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/ctxsearch ]; then
	echo "bench/run.sh: run from the root of a ctxsearch checkout (no go.mod and cmd/ctxsearch here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local

go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
