#include "interference_aware.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace erms {

namespace {

/** Predicted utilization of one host from background + allocations. */
double
predictedCpu(const HostView &host, double extra_cores = 0.0)
{
    return host.backgroundCpuUtil +
           (host.cpuAllocatedCores + extra_cores) / host.cpuCapacityCores;
}

double
predictedMem(const HostView &host, double extra_mb = 0.0)
{
    return host.backgroundMemUtil +
           (host.memAllocatedMb + extra_mb) / host.memCapacityMb;
}

/**
 * The unbalance objective over hosts [begin, end), evaluated for one
 * candidate at a time: host `index` gets (dcpu, dmem) added. POP
 * restricts both the candidate set *and* the objective to one group —
 * that locality is what makes provisioning tractable at fleet scale
 * (§5.4).
 *
 * Each host's predicted utilization is computed once. A candidate's
 * score substitutes its own two terms into the same left folds, in the
 * same order, as evaluating every host in place, and starts the sum
 * pass from the fold of the hosts before it. Floating-point addition
 * does not associate, so the folds are never rearranged: every score is
 * bit-identical to the direct evaluation.
 */
class GroupScorer
{
  public:
    GroupScorer(const std::vector<HostView> &hosts, std::size_t begin,
                std::size_t end)
        : hosts_(hosts), begin_(begin), cpu_(end - begin),
          mem_(end - begin), cpuPrefix_(end - begin + 1),
          memPrefix_(end - begin + 1)
    {
        for (std::size_t k = 0; k < cpu_.size(); ++k) {
            cpu_[k] = predictedCpu(hosts[begin + k]);
            mem_[k] = predictedMem(hosts[begin + k]);
            cpuPrefix_[k + 1] = cpuPrefix_[k] + cpu_[k];
            memPrefix_[k + 1] = memPrefix_[k] + mem_[k];
        }
    }

    double
    score(std::size_t index, double dcpu_cores, double dmem_mb) const
    {
        ERMS_ASSERT(index >= begin_ && index - begin_ < cpu_.size());
        return substituted(index - begin_,
                           predictedCpu(hosts_[index], dcpu_cores),
                           predictedMem(hosts_[index], dmem_mb));
    }

    /** The objective with no host changed. */
    double
    score() const
    {
        return substituted(0, cpu_[0], mem_[0]);
    }

  private:
    double
    substituted(std::size_t k, double cpu, double mem) const
    {
        const std::size_t n = cpu_.size();
        double cpu_sum = cpuPrefix_[k] + cpu;
        double mem_sum = memPrefix_[k] + mem;
        for (std::size_t i = k + 1; i < n; ++i) {
            cpu_sum += cpu_[i];
            mem_sum += mem_[i];
        }
        const double count = static_cast<double>(n);
        const double cpu_mean = cpu_sum / count;
        const double mem_mean = mem_sum / count;

        double total = 0.0;
        for (std::size_t i = 0; i < k; ++i)
            total += std::fabs(cpu_[i] - cpu_mean) +
                     std::fabs(mem_[i] - mem_mean);
        total += std::fabs(cpu - cpu_mean) + std::fabs(mem - mem_mean);
        for (std::size_t i = k + 1; i < n; ++i)
            total += std::fabs(cpu_[i] - cpu_mean) +
                     std::fabs(mem_[i] - mem_mean);
        return total;
    }

    const std::vector<HostView> &hosts_;
    std::size_t begin_;
    /** Predicted utilization of hosts[begin_ + k]. */
    std::vector<double> cpu_;
    std::vector<double> mem_;
    /** Left folds, from 0.0, of the first k entries of cpu_ / mem_. */
    std::vector<double> cpuPrefix_;
    std::vector<double> memPrefix_;
};

} // namespace

InterferenceAwarePlacement::InterferenceAwarePlacement(ProvisionConfig config)
    : config_(config)
{
}

double
InterferenceAwarePlacement::unbalance(const std::vector<HostView> &hosts)
{
    ERMS_ASSERT(!hosts.empty());
    return GroupScorer(hosts, 0, hosts.size()).score();
}

std::size_t
InterferenceAwarePlacement::placeContainer(const std::vector<HostView> &hosts,
                                           double cpu_request_cores,
                                           double mem_request_mb)
{
    ERMS_ASSERT(!hosts.empty());

    // POP grouping: restrict the candidate set to one static group,
    // rotating across groups between calls.
    std::size_t begin = 0;
    std::size_t end = hosts.size();
    if (config_.popGroupSize > 0 && config_.popGroupSize < hosts.size()) {
        const std::size_t groups =
            (hosts.size() + config_.popGroupSize - 1) / config_.popGroupSize;
        const std::size_t group = nextGroup_++ % groups;
        begin = group * config_.popGroupSize;
        end = std::min(hosts.size(), begin + config_.popGroupSize);
    }

    const GroupScorer group(hosts, begin, end);
    std::size_t best = begin;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = begin; i < end; ++i) {
        const double score =
            group.score(i, cpu_request_cores, mem_request_mb);
        if (score < best_score) {
            best_score = score;
            best = i;
        }
    }
    return best;
}

std::size_t
InterferenceAwarePlacement::evictContainer(
    const std::vector<HostView> &hosts,
    const std::vector<std::size_t> &candidates, double cpu_request_cores,
    double mem_request_mb)
{
    ERMS_ASSERT(!candidates.empty());
    const GroupScorer fleet(hosts, 0, hosts.size());
    std::size_t best = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const double score = fleet.score(candidates[k], -cpu_request_cores,
                                         -mem_request_mb);
        if (score < best_score) {
            best_score = score;
            best = k;
        }
    }
    return best;
}

std::size_t
BinPackPlacementPolicy::placeContainer(const std::vector<HostView> &hosts,
                                       double cpu_request_cores,
                                       double mem_request_mb)
{
    ERMS_ASSERT(!hosts.empty());
    std::size_t best = 0;
    double best_alloc = -1.0;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        const HostView &host = hosts[i];
        const bool fits =
            host.cpuAllocatedCores + cpu_request_cores <=
                host.cpuCapacityCores &&
            host.memAllocatedMb + mem_request_mb <= host.memCapacityMb;
        const double alloc = host.cpuAllocatedCores / host.cpuCapacityCores;
        if (fits && alloc > best_alloc) {
            best_alloc = alloc;
            best = i;
        }
    }
    if (best_alloc < 0.0)
        return 0; // nothing fits: overflow onto host 0
    return best;
}

std::size_t
BinPackPlacementPolicy::evictContainer(const std::vector<HostView> &,
                                       const std::vector<std::size_t> &candidates,
                                       double, double)
{
    ERMS_ASSERT(!candidates.empty());
    return candidates.size() - 1;
}

} // namespace erms
