#!/usr/bin/env bash
# Sharded-scale perf trajectory: rewrites BENCH_sharded_scale.json
# (events/s and resident memory vs shard count on the 500-service /
# 1200-host catalog; see docs/sharding.md) at the repo root. Run on a
# quiet machine — each cell is best-of-N, but background load still
# skews the numbers.
#
# Usage: scripts/bench_perf.sh [jobs]   (default: 2)

set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-2}"

cmake -B build -S .
cmake --build build -j"$JOBS" --target bench_sharded_scale

# The benchmark itself gates determinism (per-K event counts across
# worker counts, K=1 == unsharded) and exits nonzero on divergence;
# set -e stops the script right there.
./build/bench/bench_sharded_scale BENCH_sharded_scale.json

# Belt-and-braces gate on the written JSON: numbers quoted over
# diverging event counts between shard configurations never land in
# the repo. Counts must be identical across a config's repetitions
# (worker-thread determinism) and between K=1 and the unsharded
# reference; counts across different K > 1 are different RNG streams
# and are deliberately NOT compared.
python3 - BENCH_sharded_scale.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for cfg in doc["shard_configs"]:
    if len(set(cfg["rep_events"])) != 1:
        sys.exit(f"shards={cfg['shards']}: event counts diverge "
                 f"across repetitions {cfg['rep_events']}")
single = next(c for c in doc["shard_configs"] if c["shards"] == 1)
if single["events"] != doc["unsharded"]["events"]:
    sys.exit(f"K=1 events {single['events']} != unsharded "
             f"{doc['unsharded']['events']}")
EOF

echo "== BENCH_sharded_scale.json =="
cat BENCH_sharded_scale.json
