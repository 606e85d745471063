/**
 * @file
 * Tests for placement policies: the spread (k8s-default) baseline, the
 * interference-aware policy (§5.4) including POP grouping, and the
 * bin-pack adversary; unbalance score sanity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "model/catalog.hpp"
#include "provision/batch_placement.hpp"
#include "provision/interference_aware.hpp"
#include "sim/placement.hpp"

namespace erms {
namespace {

std::vector<HostView>
makeHosts(std::vector<double> cpu_alloc,
          std::vector<double> bg_cpu = {})
{
    std::vector<HostView> hosts;
    for (std::size_t i = 0; i < cpu_alloc.size(); ++i) {
        HostView host;
        host.id = static_cast<HostId>(i);
        host.cpuCapacityCores = 32.0;
        host.memCapacityMb = 64.0 * 1024.0;
        host.cpuAllocatedCores = cpu_alloc[i];
        host.memAllocatedMb = cpu_alloc[i] * 2000.0;
        host.backgroundCpuUtil = i < bg_cpu.size() ? bg_cpu[i] : 0.0;
        hosts.push_back(host);
    }
    return hosts;
}

TEST(SpreadPolicy, PicksLeastAllocatedHost)
{
    SpreadPlacementPolicy policy;
    const auto hosts = makeHosts({10.0, 2.0, 6.0});
    EXPECT_EQ(policy.placeContainer(hosts, 0.1, 200.0), 1u);
}

TEST(SpreadPolicy, EvictsFromMostLoadedCandidate)
{
    SpreadPlacementPolicy policy;
    const auto hosts = makeHosts({10.0, 2.0, 6.0});
    const std::vector<std::size_t> candidates{1, 2};
    EXPECT_EQ(policy.evictContainer(hosts, candidates, 0.1, 200.0), 1u);
    // candidates[1] == host 2, the more loaded of the two.
}

TEST(SpreadPolicy, IgnoresBackgroundLoad)
{
    // The k8s-default baseline is interference-unaware: it places on the
    // least *allocated* host even when that host has heavy background.
    SpreadPlacementPolicy policy;
    const auto hosts = makeHosts({5.0, 1.0}, {0.0, 0.9});
    EXPECT_EQ(policy.placeContainer(hosts, 0.1, 200.0), 1u);
}

TEST(InterferenceAware, AvoidsBackgroundHotHost)
{
    InterferenceAwarePlacement policy;
    const auto hosts = makeHosts({1.0, 1.0}, {0.0, 0.9});
    EXPECT_EQ(policy.placeContainer(hosts, 0.1, 200.0), 0u);
}

TEST(InterferenceAware, BalancesAllocations)
{
    InterferenceAwarePlacement policy;
    auto hosts = makeHosts({0.0, 0.0, 0.0, 0.0});
    // Place 8 containers sequentially, updating the views.
    std::vector<int> per_host(4, 0);
    for (int i = 0; i < 8; ++i) {
        const std::size_t pick = policy.placeContainer(hosts, 1.0, 1000.0);
        hosts[pick].cpuAllocatedCores += 1.0;
        hosts[pick].memAllocatedMb += 1000.0;
        ++per_host[pick];
    }
    for (int count : per_host)
        EXPECT_EQ(count, 2);
}

TEST(InterferenceAware, EvictionReducesUnbalance)
{
    InterferenceAwarePlacement policy;
    // Host 0 overloaded, host 1 light; both host a removable container.
    const auto hosts = makeHosts({12.0, 2.0});
    const std::vector<std::size_t> candidates{0, 1};
    EXPECT_EQ(policy.evictContainer(hosts, candidates, 1.0, 1000.0), 0u);
}

TEST(InterferenceAware, UnbalanceScoreZeroWhenUniform)
{
    const auto uniform = makeHosts({4.0, 4.0, 4.0});
    EXPECT_NEAR(InterferenceAwarePlacement::unbalance(uniform), 0.0, 1e-12);
    const auto skewed = makeHosts({12.0, 0.0, 0.0});
    EXPECT_GT(InterferenceAwarePlacement::unbalance(skewed), 0.0);
}

TEST(InterferenceAware, PopGroupsRestrictCandidates)
{
    ProvisionConfig config;
    config.popGroupSize = 2;
    InterferenceAwarePlacement policy(config);
    const auto hosts = makeHosts({0.0, 0.0, 0.0, 0.0});
    // First call optimizes within group {0,1}, second within {2,3}.
    const std::size_t first = policy.placeContainer(hosts, 1.0, 1000.0);
    const std::size_t second = policy.placeContainer(hosts, 1.0, 1000.0);
    EXPECT_LT(first, 2u);
    EXPECT_GE(second, 2u);
}

/**
 * The interference-aware scorer as it evaluated every candidate by
 * recomputing each host's predicted utilization in place: the reference
 * the hoisted scorer must match pick for pick.
 */
class ReferenceScan
{
  public:
    explicit ReferenceScan(std::size_t pop_group_size)
        : popGroupSize_(pop_group_size)
    {
    }

    std::size_t
    placeContainer(const std::vector<HostView> &hosts,
                   double cpu_request_cores, double mem_request_mb)
    {
        std::size_t begin = 0;
        std::size_t end = hosts.size();
        if (popGroupSize_ > 0 && popGroupSize_ < hosts.size()) {
            const std::size_t groups =
                (hosts.size() + popGroupSize_ - 1) / popGroupSize_;
            const std::size_t group = nextGroup_++ % groups;
            begin = group * popGroupSize_;
            end = std::min(hosts.size(), begin + popGroupSize_);
        }

        std::size_t best = begin;
        double best_score = std::numeric_limits<double>::infinity();
        for (std::size_t i = begin; i < end; ++i) {
            const double score = unbalanceWithDelta(
                hosts, begin, end, i, cpu_request_cores, mem_request_mb);
            if (score < best_score) {
                best_score = score;
                best = i;
            }
        }
        return best;
    }

    static std::size_t
    evictContainer(const std::vector<HostView> &hosts,
                   const std::vector<std::size_t> &candidates,
                   double cpu_request_cores, double mem_request_mb)
    {
        std::size_t best = 0;
        double best_score = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < candidates.size(); ++k) {
            const double score = unbalanceWithDelta(
                hosts, 0, hosts.size(), candidates[k], -cpu_request_cores,
                -mem_request_mb);
            if (score < best_score) {
                best_score = score;
                best = k;
            }
        }
        return best;
    }

    static double
    unbalance(const std::vector<HostView> &hosts)
    {
        return unbalanceWithDelta(hosts, 0, hosts.size(), hosts.size(), 0.0,
                                  0.0);
    }

  private:
    static double
    predictedCpu(const HostView &host, double extra_cores = 0.0)
    {
        return host.backgroundCpuUtil +
               (host.cpuAllocatedCores + extra_cores) / host.cpuCapacityCores;
    }

    static double
    predictedMem(const HostView &host, double extra_mb = 0.0)
    {
        return host.backgroundMemUtil +
               (host.memAllocatedMb + extra_mb) / host.memCapacityMb;
    }

    static double
    unbalanceWithDelta(const std::vector<HostView> &hosts,
                       std::size_t begin, std::size_t end,
                       std::size_t delta_index, double dcpu_cores,
                       double dmem_mb)
    {
        double cpu_sum = 0.0, mem_sum = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            cpu_sum +=
                predictedCpu(hosts[i], i == delta_index ? dcpu_cores : 0.0);
            mem_sum +=
                predictedMem(hosts[i], i == delta_index ? dmem_mb : 0.0);
        }
        const double n = static_cast<double>(end - begin);
        const double cpu_mean = cpu_sum / n;
        const double mem_mean = mem_sum / n;

        double total = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            const double cpu =
                predictedCpu(hosts[i], i == delta_index ? dcpu_cores : 0.0);
            const double mem =
                predictedMem(hosts[i], i == delta_index ? dmem_mb : 0.0);
            total += std::fabs(cpu - cpu_mean) + std::fabs(mem - mem_mean);
        }
        return total;
    }

    std::size_t popGroupSize_;
    std::size_t nextGroup_ = 0;
};

/** A fleet of `size` hosts: random loads, or identical hosts whose
 *  candidates all tie until rounding separates them. */
std::vector<HostView>
scorerFleet(std::size_t size, bool tied, Rng &rng)
{
    std::vector<HostView> hosts(size);
    for (std::size_t h = 0; h < size; ++h) {
        HostView &host = hosts[h];
        host.id = static_cast<HostId>(h);
        host.cpuAllocatedCores = tied ? 3.3 : rng.uniform(0.0, 8.0);
        host.memAllocatedMb = tied ? 7100.0 : rng.uniform(0.0, 16000.0);
        host.backgroundCpuUtil = tied ? 0.1 : rng.uniform(0.0, 0.5);
        host.backgroundMemUtil = tied ? 0.7 : rng.uniform(0.0, 0.5);
    }
    return hosts;
}

TEST(InterferenceAware, ScorerMatchesReference)
{
    Rng rng(2023);
    std::size_t compared = 0;
    for (std::size_t size : {1, 2, 63, 64, 65, 130, 1000}) {
        for (std::size_t group : {0, 7, 64}) {
            for (bool tied : {false, true}) {
                for (bool zero_request : {false, true}) {
                    auto hosts = scorerFleet(size, tied, rng);
                    ProvisionConfig config;
                    config.popGroupSize = group;
                    InterferenceAwarePlacement policy(config);
                    ReferenceScan reference(group);
                    const double cpu = zero_request ? 0.0 : 0.3;
                    const double mem = zero_request ? 0.0 : 512.0;
                    // Every group several times over; whole-fleet scans
                    // of the large fleet cost O(size^2) each.
                    const std::size_t group_hosts =
                        group == 0 ? size : std::min(size, group);
                    const int steps =
                        group_hosts >= 500 ? 4
                                           : static_cast<int>(
                                                 3 * (size / group_hosts) + 5);
                    for (int step = 0; step < steps; ++step) {
                        const std::size_t pick =
                            policy.placeContainer(hosts, cpu, mem);
                        ASSERT_EQ(pick,
                                  reference.placeContainer(hosts, cpu, mem))
                            << "size " << size << " group " << group
                            << " tied " << tied << " zero " << zero_request
                            << " step " << step;
                        hosts[pick].cpuAllocatedCores += cpu;
                        hosts[pick].memAllocatedMb += mem;
                        ++compared;

                        // Unsorted candidates, repeats allowed.
                        std::vector<std::size_t> candidates(
                            1 + static_cast<std::size_t>(
                                    rng.uniformInt(0, 11)));
                        for (std::size_t &c : candidates)
                            c = static_cast<std::size_t>(rng.uniformInt(
                                0, static_cast<std::int64_t>(size) - 1));
                        ASSERT_EQ(policy.evictContainer(hosts, candidates,
                                                        cpu, mem),
                                  ReferenceScan::evictContainer(
                                      hosts, candidates, cpu, mem))
                            << "size " << size << " group " << group
                            << " tied " << tied << " zero " << zero_request
                            << " step " << step;
                        ++compared;
                    }
                    EXPECT_EQ(InterferenceAwarePlacement::unbalance(hosts),
                              ReferenceScan::unbalance(hosts));
                }
            }
        }
    }
    EXPECT_GT(compared, 1000u);
}

TEST(BinPack, FillsMostAllocatedThatFits)
{
    BinPackPlacementPolicy policy;
    const auto hosts = makeHosts({30.0, 10.0, 31.95});
    // Host 2 has no room for a full core; host 0 is the fullest that fits.
    EXPECT_EQ(policy.placeContainer(hosts, 1.0, 100.0), 0u);
}

TEST(BinPack, OverflowFallsBackToHostZero)
{
    BinPackPlacementPolicy policy;
    auto hosts = makeHosts({32.0, 32.0});
    EXPECT_EQ(policy.placeContainer(hosts, 1.0, 100.0), 0u);
}

TEST(BatchPlacement, PlacesRequestedCountsAndTracksUnbalance)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "a";
    profile.resources = {1.0, 1000.0};
    const auto a = catalog.add(profile);
    profile.name = "b";
    const auto b = catalog.add(profile);

    // Imbalanced start: host 0 heavily allocated.
    auto hosts = makeHosts({16.0, 0.0, 0.0, 0.0});
    InterferenceAwarePlacement policy;
    const auto result =
        placeBatch(catalog, hosts, {{a, 6}, {b, 2}}, policy);

    EXPECT_EQ(result.placements.size(), 8u);
    // New containers land on the empty hosts, improving balance.
    EXPECT_LT(result.unbalanceAfter, result.unbalanceBefore);
    for (const PlacementAssignment &p : result.placements)
        EXPECT_NE(p.host, 0u);
    // Host views reflect the applied assignments.
    double total_cpu = 0.0;
    for (const HostView &host : result.hostsAfter)
        total_cpu += host.cpuAllocatedCores;
    EXPECT_NEAR(total_cpu, 16.0 + 8.0, 1e-9);
}

TEST(BatchPlacement, IgnoresNonPositiveDeltas)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "a";
    const auto a = catalog.add(profile);
    auto hosts = makeHosts({0.0, 0.0});
    InterferenceAwarePlacement policy;
    const auto result = placeBatch(catalog, hosts, {{a, 0}}, policy);
    EXPECT_TRUE(result.placements.empty());
    EXPECT_DOUBLE_EQ(result.unbalanceBefore, result.unbalanceAfter);
}

TEST(BatchPlacement, ScaleOutDeltasOnlyGrowth)
{
    GlobalPlan plan;
    plan.containers[1] = 5;
    plan.containers[2] = 3;
    plan.containers[3] = 4;
    const auto deltas =
        scaleOutDeltas(plan, {{1, 2}, {2, 7}, {4, 1}});
    EXPECT_EQ(deltas.size(), 2u);
    EXPECT_EQ(deltas.at(1), 3); // 5 - 2
    EXPECT_EQ(deltas.at(3), 4); // absent -> full target
    EXPECT_FALSE(deltas.count(2)); // shrink handled by draining
}

TEST(BatchPlacement, PopGroupsKeepDecisionsLocal)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "a";
    profile.resources = {1.0, 1000.0};
    const auto a = catalog.add(profile);

    auto hosts = makeHosts(std::vector<double>(8, 0.0));
    ProvisionConfig config;
    config.popGroupSize = 4;
    InterferenceAwarePlacement policy(config);
    const auto result = placeBatch(catalog, hosts, {{a, 8}}, policy);
    // Round-robin over two groups: each group receives half.
    int first_group = 0;
    for (const PlacementAssignment &p : result.placements)
        first_group += p.host < 4;
    EXPECT_EQ(first_group, 4);
}

} // namespace
} // namespace erms
