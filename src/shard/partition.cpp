#include "partition.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace erms::shard {

namespace {

/** Union-find over service positions (path halving + size union with
 *  deterministic root choice: smaller index wins ties). */
class UnionFind
{
  public:
    explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1)
    {
        for (std::size_t i = 0; i < n; ++i)
            parent_[i] = i;
    }

    std::size_t
    find(std::size_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    unite(std::size_t a, std::size_t b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return;
        // Deterministic: larger component absorbs; equal sizes -> the
        // smaller root index absorbs. No rank randomness anywhere.
        if (size_[a] < size_[b] || (size_[a] == size_[b] && b < a))
            std::swap(a, b);
        parent_[b] = a;
        size_[a] += size_[b];
    }

  private:
    std::vector<std::size_t> parent_;
    std::vector<std::size_t> size_;
};

} // namespace

ShardPlan
planShards(const std::vector<ServiceWorkload> &services, int total_hosts,
           int shard_count, std::uint64_t base_seed)
{
    if (services.empty())
        throw ErmsError("planShards: no services to partition");
    for (const ServiceWorkload &svc : services) {
        if (svc.graph == nullptr)
            throw ErmsError("planShards: service " +
                            std::to_string(svc.id) +
                            " has no dependency graph");
    }
    if (shard_count < 1)
        shard_count = 1;

    // 1. Connected components of the service–microservice graph:
    //    services touching a common microservice must co-reside.
    UnionFind uf(services.size());
    std::unordered_map<MicroserviceId, std::size_t> first_user;
    for (std::size_t i = 0; i < services.size(); ++i) {
        for (MicroserviceId ms : services[i].graph->nodes()) {
            auto [it, inserted] = first_user.try_emplace(ms, i);
            if (!inserted)
                uf.unite(it->second, i);
        }
    }

    // Components keyed by root, ordered by their first service position
    // so component identity never depends on hash iteration.
    std::vector<std::vector<std::size_t>> components;
    std::unordered_map<std::size_t, std::size_t> comp_of_root;
    for (std::size_t i = 0; i < services.size(); ++i) {
        const std::size_t root = uf.find(i);
        auto [it, inserted] =
            comp_of_root.try_emplace(root, components.size());
        if (inserted)
            components.emplace_back();
        components[it->second].push_back(i);
    }

    // Component weight = distinct microservices (the event-load proxy
    // the host split uses too).
    struct CompInfo
    {
        std::size_t comp;
        std::size_t weight;
    };
    std::vector<CompInfo> order;
    order.reserve(components.size());
    for (std::size_t c = 0; c < components.size(); ++c) {
        std::vector<MicroserviceId> ms;
        for (std::size_t svc : components[c])
            for (MicroserviceId id : services[svc].graph->nodes())
                ms.push_back(id);
        std::sort(ms.begin(), ms.end());
        ms.erase(std::unique(ms.begin(), ms.end()), ms.end());
        order.push_back({c, ms.size()});
    }

    const int effective =
        std::min<int>(shard_count, static_cast<int>(components.size()));
    if (total_hosts < effective)
        throw ErmsError("planShards: " + std::to_string(total_hosts) +
                        " hosts cannot populate " +
                        std::to_string(effective) + " shards");

    // 2. LPT bin-packing: heaviest component first onto the lightest
    //    shard; ties break toward the earlier component / lower shard.
    std::stable_sort(order.begin(), order.end(),
                     [](const CompInfo &a, const CompInfo &b) {
                         return a.weight > b.weight;
                     });

    ShardPlan plan;
    plan.shardCount = effective;
    plan.shards.resize(effective);
    std::vector<std::size_t> shard_weight(effective, 0);
    std::vector<int> comp_shard(components.size(), 0);
    for (const CompInfo &info : order) {
        int lightest = 0;
        for (int k = 1; k < effective; ++k)
            if (shard_weight[k] < shard_weight[lightest])
                lightest = k;
        comp_shard[info.comp] = lightest;
        shard_weight[lightest] += info.weight;
    }

    // 3. Materialize shard membership in the caller's service order.
    for (std::size_t c = 0; c < components.size(); ++c)
        for (std::size_t svc : components[c])
            plan.shards[comp_shard[c]].services.push_back(svc);
    for (int k = 0; k < effective; ++k) {
        ShardSpec &spec = plan.shards[k];
        spec.index = k;
        std::sort(spec.services.begin(), spec.services.end());
        for (std::size_t svc : spec.services) {
            plan.shardOfService[services[svc].id] = k;
            for (MicroserviceId ms : services[svc].graph->nodes())
                spec.microservices.push_back(ms);
        }
        std::sort(spec.microservices.begin(), spec.microservices.end());
        spec.microservices.erase(std::unique(spec.microservices.begin(),
                                             spec.microservices.end()),
                                 spec.microservices.end());
        for (MicroserviceId ms : spec.microservices)
            plan.shardOfMicroservice[ms] = k;
    }

    // 4. Hosts: weight-proportional largest-remainder split, floor 1.
    //    (K == 1 trivially gets the whole fleet — exact unsharded
    //    geometry, part of the byte-identity contract.)
    std::size_t total_weight = 0;
    for (int k = 0; k < effective; ++k)
        total_weight += shard_weight[k];
    std::vector<int> hosts(effective, 1);
    int assigned = effective;
    std::vector<std::pair<double, int>> remainders; // (-frac, shard)
    for (int k = 0; k < effective; ++k) {
        const double exact =
            total_weight == 0
                ? static_cast<double>(total_hosts) / effective
                : static_cast<double>(total_hosts) * shard_weight[k] /
                      static_cast<double>(total_weight);
        const int extra = std::max(0, static_cast<int>(exact) - 1);
        hosts[k] += extra;
        assigned += extra;
        remainders.emplace_back(-(exact - static_cast<int>(exact)), k);
    }
    std::stable_sort(remainders.begin(), remainders.end());
    for (std::size_t r = 0; assigned < total_hosts; ++assigned) {
        hosts[remainders[r].second] += 1;
        r = (r + 1) % remainders.size();
    }
    // Over-assignment can only come from the floor-of-1 bump; take the
    // surplus back from the largest shards (deterministic order).
    for (int k = 0; assigned > total_hosts; k = (k + 1) % effective) {
        if (hosts[k] > 1) {
            hosts[k] -= 1;
            --assigned;
        }
    }

    int offset = 0;
    for (int k = 0; k < effective; ++k) {
        plan.shards[k].hostCount = hosts[k];
        plan.shards[k].hostOffset = offset;
        offset += hosts[k];
    }

    // 5. Seeds: K == 1 keeps the base seed (byte-identity with the
    //    unsharded simulator); otherwise each shard gets an independent
    //    stream via the runner's closed-form derivation.
    for (int k = 0; k < effective; ++k) {
        plan.shards[k].seed = effective == 1
                                  ? base_seed
                                  : deriveRunSeed(base_seed,
                                                  static_cast<std::size_t>(k));
    }
    return plan;
}

} // namespace erms::shard
