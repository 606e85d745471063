#!/usr/bin/env bash
# gprof recipe for the Erms benchmark: configures a separate -pg build
# directory through command-line flags only (no build file changes),
# runs one named workload, and prints gprof's flat profile, so any
# hot-spot claim can be re-run. perf is not needed.
#
# Usage: bash perfbench/profile.sh <deathstar_chaos|taobao_sharded|plan_scale> \
#            [seed=1] [seconds=5] [lines=40]
#
# Writes .bench_build_pg/ (with gmon.out and the run's JSON) at the
# checkout root. gprof samples only the main thread, so taobao_sharded's
# profile covers the coordinator and merge, not the shard workers; it
# does not attribute time inside libm/libstdc++ either.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
workload=${1:?usage: profile.sh <workload> [seed] [seconds] [lines]}
seed=${2:-1}
seconds=${3:-5}
lines=${4:-40}
build="$root/.bench_build_pg"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$build" -j "$(nproc)" --target erms_perfbench >&2

cd "$build"
rm -f gmon.out
./erms_perfbench --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > run.json
gprof -b -p ./erms_perfbench gmon.out | head -n "$lines"
