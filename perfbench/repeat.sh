#!/bin/sh
# Run the whole suite twice and compare the two run sets against the
# bounds in BENCHMARK.json. From the root of the checkout:
#
#   perfbench/repeat.sh [runs-per-set] [first-seed]
#
# Each run of a set uses the next seed; both sets use the same seeds, so
# the comparison shows what the same commit does to itself. Give the
# second set another first seed (edit below) to see the spread across
# inputs instead. Writes target/seqdb-bench/perf/set-{a,b}.json.
set -eu
runs=${1:-5}
seed=${2:-1}
out=${CARGO_TARGET_DIR:-target}/seqdb-bench/perf
perf="cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perf --"
mkdir -p "$out"
$perf --seed "$seed" --repeat "$runs" > "$out/set-a.json"
$perf --seed "$seed" --repeat "$runs" > "$out/set-b.json"
$perf compare "$out/set-a.json" "$out/set-b.json" --baseline "$out/baseline.json"
