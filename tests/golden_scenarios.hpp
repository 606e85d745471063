/**
 * @file
 * Deterministic golden scenarios: trimmed-size versions of the fig12
 * (static validation), fig13 (closed-loop dynamic) and fault-sweep
 * experiments whose outputs are pinned byte-for-byte under
 * tests/golden/. Every double is printed as a hexfloat so a single-ULP
 * drift anywhere in the pipeline (RNG, solver, simulator, telemetry,
 * runner dispatch) fails the comparison. scripts/regen_golden.sh
 * rewrites the committed tables after an intentional behaviour change.
 */

#ifndef ERMS_TESTS_GOLDEN_SCENARIOS_HPP
#define ERMS_TESTS_GOLDEN_SCENARIOS_HPP

#include <string>
#include <vector>

namespace erms::golden {

/** One golden scenario: file name under tests/golden/ plus producer. */
struct Scenario
{
    std::string file;
    std::string (*produce)();
};

/** Trimmed fig12: profile a small app through the offline sweep, plan
 *  under all three sharing policies, validate each plan in the
 *  simulator at a fixed seed. */
std::string fig12Golden();

/** Trimmed fig13: hotel-reservation under closed-loop controllers
 *  (Erms oracle, Erms scraped-telemetry, Firm) over a short dynamic
 *  series. Pins telemetry-driven control end to end. */
std::string fig13Golden();

/** Trimmed fault sweep through ParallelRunner: crash/slowdown configs
 *  across seeds with retries and capacity repair. Identical output
 *  however many runner workers execute it. */
std::string faultSweepGolden();

/** Trimmed tenant market: two motivation-shared tenants (honest vs
 *  greedy) on counter-phased demand under makeMarketController, run
 *  against both the max-min and the Karma allocator. Pins per-minute
 *  caps, trimmed container counts, tail latencies and the final credit
 *  ledger. */
std::string marketGolden();

/** Trimmed chaos campaign: one guarded Erms arm of the "med"
 *  correlated-chaos battery (AZ events on both fault planes, scaled
 *  counter corruption) on a reduced diurnal trace population. Pins the
 *  per-minute violation/guard-state trajectory and the perturbed
 *  scrape stream's shape end to end. */
std::string chaosCampaignGolden();

/** Planner alone at trace-scale sharing: a synthetic Alibaba-like
 *  population planned under every sharing policy at two interference
 *  points and three SLA scales (the tightest pins infeasible reasons),
 *  plus a two-pass refinement plan and a workload-override solve. One
 *  summary line and row digest per plan; full rows for one plan. */
std::string plannerGolden();

/** Telemetry data path: FNV-1a digests of the JSON export of a
 *  simulator-fed Hotel + Social monitor history, of faulty-view
 *  perturbed histories under every fault class and corruption mode
 *  (one digest per scrape generation), of shard merges over K in
 *  {2, 3, 4}, and of one campaign archive, plus one small scrape's
 *  full JSON. Pins the series identities and values every scrape
 *  stream carries, byte for byte. */
std::string telemetryGolden();

/** All golden scenarios in regeneration order. */
const std::vector<Scenario> &scenarios();

} // namespace erms::golden

#endif // ERMS_TESTS_GOLDEN_SCENARIOS_HPP
