#!/usr/bin/env bash
# Full pre-merge check: the tier-1 build + test verification, then an
# AddressSanitizer build exercising the fault-injection, telemetry
# chaos, and runner tests (the code paths with the hairiest object
# lifetimes: pooled call contexts, container erasure on crash, hedge
# cancellation, lazily cached perturbed snapshots), the golden,
# market, tuning, and property suites, an UndefinedBehaviorSanitizer pass
# over the numeric-heavy telemetry/guard/chaos/tuning paths (quantile
# interpolation, counter deltas, NaN/Inf guards, feedback-rule
# streak arithmetic), a ThreadSanitizer pass over the
# parallel runner, the profiling sweep's concurrent cells, the event
# engine, and the sharded coordinator's merge path (concurrent shard
# controllers reading the merged telemetry view), determinism passes
# (the golden tables must come out
# identical with one worker vs the hardware default, and through the
# K=1 sharded coordinator vs the unsharded path; the tenant-market
# bench table must come out identical with one runner worker vs the
# hardware default; a chaos-campaign archive written with the default
# worker count must replay byte-identically in a fresh serial process;
# a sweep-lite knob sweep over an archived campaign must export
# byte-identical operating-curve JSON with one worker vs the default),
# a model/plan-file smoke (erms_cli demo: profile -> JSON model file ->
# plan -> JSON plan file -> validate), and the documentation
# link-and-symbol checker. The sanitizer passes also cover the strict
# JSON module: its grammar and round-trip tests, the archive round-trip
# property, mutation fuzz and parser regressions, and the io tests; and
# the planner: the dependency-graph and scaling suites under ASan and
# UBSan, plus the critical-path, end-to-end latency, solver and
# multiplexing properties and the planner golden under UBSan, with the
# catalog and the interference-aware placement scorer (checked against
# its reference scan) under both; and the
# telemetry read path: the shard merge, partition and coordinated
# stepping suites and the strict CSV rate reader under ASan and UBSan;
# and the interned telemetry schemas: the sharded coordinator suite
# (whose union-schema cache outlives rounds) under ASan and UBSan as
# well as TSan, and the telemetry golden under UBSan; and the event
# queue: its unit tests (EventQueue*) under ASan and the whole event
# engine suite, reference fuzz included, under UBSan; and the series
# value-word fold the shard merge runs (the histogram merge property)
# under UBSan as well as ASan; and the simulator's deployment paths
# (ordered container erase, pooled containers, scale-in, requeue) under
# both. The sharded scale bench gates its event counts (K=1 equals the
# unsharded run; per-K counts match across worker counts). A first gate
# keeps the library free of environment reads: settings reach src/
# only through config structs, and the benches and golden tests read
# ERMS_* variables at their edge (bench/bench_util).
#
# Usage: scripts/check.sh [jobs]   (default: 2)

set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-2}"

# gtest filters run by both the AddressSanitizer and the
# UndefinedBehaviorSanitizer pass.
# SampleSet* covers the sample store's radix sort, whose output must be
# bit-identical to std::sort's.
FOUNDATION_FILTER='Json*:DependencyGraph*:Catalog.*:SampleSet*'
SHARD_FILTER='ShardMerge.*:ShardPartition.*:CoordinatedStepping.*:ShardCoordinator.*'
# The simulator suites: deployment scaling, partitions, startup delay,
# draining, round-robin and container-id order, plus faults and
# resilience.
SIM_FILTER='Simulation.*:Partitions.*:StartupDelay.*:DedicatedScaling.*:Draining.*:RoundRobin.*:DeploymentOrder.*:Fault*:Resilience*'
# The campaign suite's full-size runs are slow under the sanitizers;
# the archive/replay and campaign-determinism contracts get their
# cross-process pass below, so the sanitizers focus on the
# schedule/corruption/cache layers and the guarded-baseline
# transparency runs.
CAMPAIGN_FILTER='CampaignAzSchedule.*:CampaignCorruption.*:CampaignFaultyViewCache.*:CampaignArms.*:CampaignArchive.MalformedDocumentThrows:CampaignArchive.RandomArchivesRoundTripBitExact:CampaignArchive.LegacyArchiveParsesToTheSameConfig:CampaignArchive.UnsortedOrDuplicateScrapeSeriesThrowNamingThePath:CampaignArchiveFuzz.*:CampaignArchiveRegression.*:CampaignBaselineTransparency.*'
# The tuning suite's campaign-level contracts re-run full micro
# campaigns and are slow under the sanitizers; the sweep-lite
# determinism gate below exercises the sweep/campaign stack natively,
# so the sanitizers focus on the feedback rules, validation, reduction,
# metrics, and one end-to-end self-tuned replay.
TUNING_FILTER='AdaptiveTuner.*:TunerConfigValidation.*:GuardrailConfigValidation.*:SweepReduction.*:SweepConfigValidation.*:GuardMetrics.*:GuardRetune.*:SelfTuningDeterminism.SelfTunedCampaignReplaysExactly'

echo "== library reads no environment: no getenv under src/ =="
if grep -rnw getenv src; then
    echo "src/ must take settings through config structs, not getenv" >&2
    exit 1
fi

echo "== tier-1: configure + build + ctest (build/) =="
cmake -B build -S .
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure

echo "== asan: simulator + fault + chaos + campaign + tuning + runner + golden + market + property + json + planner + shard merge tests (build-asan/) =="
cmake -B build-asan -S . -DERMS_SANITIZE=address
cmake --build build-asan -j"$JOBS" \
    --target erms_tests_foundation erms_tests_sim erms_tests_runner \
             erms_tests_golden erms_tests_system erms_tests_telemetry \
             erms_tests_chaos erms_tests_campaign erms_tests_event_engine \
             erms_tests_queueing erms_tests_market erms_tests_tuning \
             erms_tests_scaling erms_tests_shard
./build-asan/tests/erms_tests_foundation \
    --gtest_filter="$FOUNDATION_FILTER"
./build-asan/tests/erms_tests_scaling
./build-asan/tests/erms_tests_sim \
    --gtest_filter="$SIM_FILTER:EventQueue*"
./build-asan/tests/erms_tests_runner
./build-asan/tests/erms_tests_golden
./build-asan/tests/erms_tests_system \
    --gtest_filter='*Property*:*StatsMerge*:*HistogramMerge*:*TelemetryTransparency*:*Serialization*:CsvRates*:InterferenceAware.*:BatchPlacement.*'
./build-asan/tests/erms_tests_shard \
    --gtest_filter="$SHARD_FILTER"
./build-asan/tests/erms_tests_telemetry
./build-asan/tests/erms_tests_chaos
./build-asan/tests/erms_tests_campaign \
    --gtest_filter="$CAMPAIGN_FILTER"
./build-asan/tests/erms_tests_event_engine
./build-asan/tests/erms_tests_queueing \
    --gtest_filter='QueueingValidation.MM1*:QueueingValidation.ErlangC*'
./build-asan/tests/erms_tests_market
./build-asan/tests/erms_tests_tuning \
    --gtest_filter="$TUNING_FILTER"

echo "== ubsan: json + io + simulator + telemetry + guard + chaos + campaign + tuning + planner + shard merge numeric paths (build-ubsan/) =="
cmake -B build-ubsan -S . -DERMS_SANITIZE=undefined
cmake --build build-ubsan -j"$JOBS" \
    --target erms_tests_foundation erms_tests_system erms_tests_telemetry \
             erms_tests_chaos erms_tests_campaign erms_tests_sim \
             erms_tests_tuning erms_tests_scaling erms_tests_golden \
             erms_tests_shard erms_tests_event_engine
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_foundation \
    --gtest_filter="$FOUNDATION_FILTER"
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_system \
    --gtest_filter='*Serialization*:CriticalPaths*:EndToEndLatency*:*SolverProperty*:*MultiplexProperty*:CsvRates*:InterferenceAware.*:BatchPlacement.*:*HistogramMerge*'
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_shard \
    --gtest_filter="$SHARD_FILTER"
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_scaling
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_golden \
    --gtest_filter='Scenarios/GoldenFile.MatchesCommittedTable/planner:Scenarios/GoldenFile.MatchesCommittedTable/telemetry'
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_telemetry
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_chaos
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_campaign \
    --gtest_filter="$CAMPAIGN_FILTER"
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_sim \
    --gtest_filter="$SIM_FILTER"
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_tuning \
    --gtest_filter="$TUNING_FILTER"
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_event_engine

echo "== tsan: parallel runner + profiling sweep + event engine + shard coordinator (build-tsan/) =="
cmake -B build-tsan -S . -DERMS_SANITIZE=thread
cmake --build build-tsan -j"$JOBS" \
    --target erms_tests_runner erms_tests_system erms_tests_event_engine \
             erms_tests_shard
./build-tsan/tests/erms_tests_runner
# The profiling sweep's cells run concurrently on runner workers over
# one shared const catalog and graph set.
./build-tsan/tests/erms_tests_system --gtest_filter='ProfilingPipeline.*'
# erms_tests_event_engine includes EventEngineThreads.*, which drains
# independent queues concurrently on runner workers: no hidden shared
# state between engine instances.
./build-tsan/tests/erms_tests_event_engine
# The sharded coordinator's cross-thread surface: lockstep rounds run
# shard resumes on runner workers while every shard's minute controller
# reads the shared merged telemetry view.
./build-tsan/tests/erms_tests_shard \
    --gtest_filter='ShardCoordinator.*'

echo "== runner determinism: golden tables with 1 worker vs default =="
ERMS_RUNNER_THREADS=1 ./build/tests/erms_tests_golden
./build/tests/erms_tests_golden

echo "== shard determinism: golden tables through the K=1 coordinator =="
ERMS_SHARDS=1 ./build/tests/erms_tests_golden

echo "== sharded scale gates: K=1 events equal unsharded, per-K events equal across workers =="
cmake --build build -j"$JOBS" --target bench_sharded_scale
# Exits nonzero when either gate fails (docs/sharding.md).
./build/bench/bench_sharded_scale > /tmp/erms_sharded_scale.txt

echo "== market determinism: tenant-market bench with 1 worker vs default =="
cmake --build build -j"$JOBS" --target bench_tenant_market
./build/bench/bench_tenant_market > /tmp/erms_market_default.txt
ERMS_RUNNER_THREADS=1 ./build/bench/bench_tenant_market \
    > /tmp/erms_market_serial.txt
cmp /tmp/erms_market_default.txt /tmp/erms_market_serial.txt

echo "== campaign replay determinism: archive with default workers, replay serial =="
cmake --build build -j"$JOBS" --target campaign_replay
./build/bench/campaign_replay write /tmp/erms_campaign_default.json med erms guarded
# The replay must reproduce the archived rows and scrape stream from
# the config alone — in a fresh process, pinned to one runner worker.
ERMS_RUNNER_THREADS=1 ./build/bench/campaign_replay replay \
    /tmp/erms_campaign_default.json
# And a serially-written archive must be byte-identical to the default
# one: campaigns never depend on the worker count.
ERMS_RUNNER_THREADS=1 ./build/bench/campaign_replay write \
    /tmp/erms_campaign_serial.json med erms guarded
cmp /tmp/erms_campaign_default.json /tmp/erms_campaign_serial.json

echo "== sweep determinism: sweep-lite over an archived campaign, 1 worker vs default =="
cmake --build build -j"$JOBS" --target bench_guard_tuning
# A tiny grid over a scenario rebuilt from an archived campaign: the
# operating-curve JSON (cells, curves, knee picks, safe bounds) must
# come out byte-identical regardless of the runner worker count.
./build/bench/bench_guard_tuning write-scenario /tmp/erms_tuning_scenario.json med
./build/bench/bench_guard_tuning sweep-lite /tmp/erms_sweep_default.json \
    /tmp/erms_tuning_scenario.json
ERMS_RUNNER_THREADS=1 ./build/bench/bench_guard_tuning sweep-lite \
    /tmp/erms_sweep_serial.json /tmp/erms_tuning_scenario.json
cmp /tmp/erms_sweep_default.json /tmp/erms_sweep_serial.json

echo "== model and plan files: erms_cli demo (profile -> plan -> validate) =="
cmake --build build -j"$JOBS" --target erms_cli
# The only consumer of the JSON model and plan files: it writes both,
# reads them back, and validates the plan in the simulator.
./build/examples/erms_cli demo hotel > /tmp/erms_cli_demo.txt

echo "== docs: link and symbol check =="
scripts/check_docs.sh

echo "== all checks passed =="
