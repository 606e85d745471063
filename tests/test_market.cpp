/**
 * @file
 * The multi-tenant resource-market battery (docs/market.md): credit
 * ledger semantics, allocator unit behaviour (max-min water-fill and
 * the Karma credit mechanism), seeded property invariants (credit
 * conservation, capacity bounds, Pareto efficiency), the
 * strategy-proofness differential (overclaiming pays under naive
 * max-min, is neutralized under Karma), and the makeMarketController
 * integration (caps bind deployed containers; an unlimited market is
 * byte-identical to the unwrapped controller).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "apps/applications.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "market/market.hpp"
#include "workload/generators.hpp"

namespace erms::market {
namespace {

// =====================================================================
// Credit ledger
// =====================================================================

TEST(MarketLedgerTest, EndowmentInitializesBalances)
{
    CreditLedger ledger(3, {.initialCredits = 7, .creditFloor = 0});
    EXPECT_EQ(ledger.tenantCount(), 3u);
    for (TenantId t = 0; t < 3; ++t) {
        EXPECT_EQ(ledger.balance(t), 7);
        EXPECT_EQ(ledger.spendable(t), 7);
    }
    EXPECT_EQ(ledger.totalEndowment(), 21);
    EXPECT_EQ(ledger.totalBalance(), 21);
}

TEST(MarketLedgerTest, DonateIncreasesBalance)
{
    CreditLedger ledger(2);
    ledger.donate(1, 5);
    EXPECT_EQ(ledger.balance(0), 0);
    EXPECT_EQ(ledger.balance(1), 5);
    EXPECT_EQ(ledger.totalBalance(), 5);
}

TEST(MarketLedgerTest, BorrowDebitsAndClampsAtFloor)
{
    CreditLedger ledger(1, {.initialCredits = 4, .creditFloor = 0});
    EXPECT_EQ(ledger.borrow(0, 3), 3);
    EXPECT_EQ(ledger.balance(0), 1);
    // Asking for more than the balance debits only what is spendable.
    EXPECT_EQ(ledger.borrow(0, 10), 1);
    EXPECT_EQ(ledger.balance(0), 0);
    EXPECT_EQ(ledger.borrow(0, 1), 0);
}

TEST(MarketLedgerTest, CreditFloorReservesBalance)
{
    CreditLedger ledger(1, {.initialCredits = 5, .creditFloor = 2});
    EXPECT_EQ(ledger.spendable(0), 3);
    EXPECT_EQ(ledger.borrow(0, 10), 3);
    EXPECT_EQ(ledger.balance(0), 2);
    EXPECT_EQ(ledger.spendable(0), 0);
}

// =====================================================================
// Allocator primitives and unit behaviour
// =====================================================================

TEST(MarketAllocatorTest, EqualSharesSplitsRemainderToLowIds)
{
    EXPECT_EQ(equalShares(10, 4), (std::vector<Units>{3, 3, 2, 2}));
    EXPECT_EQ(equalShares(12, 4), (std::vector<Units>{3, 3, 3, 3}));
    EXPECT_EQ(equalShares(2, 4), (std::vector<Units>{1, 1, 0, 0}));
}

TEST(MarketAllocatorTest, WaterFillServesAllWhenUncontended)
{
    const auto fill = waterFill({4, 0, 7}, 20);
    EXPECT_EQ(fill, (std::vector<Units>{4, 0, 7}));
}

TEST(MarketAllocatorTest, WaterFillLevelsContendedDemands)
{
    // Level sits at 4 with 12 units over {2, 9, 8}: the small demand is
    // satisfied, the big ones level out, remainder to the lower id.
    const auto fill = waterFill({2, 9, 8}, 12);
    EXPECT_EQ(std::accumulate(fill.begin(), fill.end(), Units{0}), 12);
    EXPECT_EQ(fill[0], 2);
    EXPECT_EQ(fill[1], 5);
    EXPECT_EQ(fill[2], 5);
}

TEST(MarketAllocatorTest, WaterFillExhaustsCapacityWhileDemandUnmet)
{
    const auto fill = waterFill({30, 1, 30, 30}, 25);
    EXPECT_EQ(std::accumulate(fill.begin(), fill.end(), Units{0}), 25);
    for (std::size_t i = 0; i < fill.size(); ++i)
        EXPECT_LE(fill[i], (std::vector<Units>{30, 1, 30, 30})[i]);
}

TEST(MarketAllocatorTest, ProportionalSplitSumsExactly)
{
    const auto parts = proportionalSplit({3, 1, 1}, 10);
    EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), Units{0}), 10);
    EXPECT_EQ(parts[0], 6);
    EXPECT_EQ(parts[1], 2);
    EXPECT_EQ(parts[2], 2);
    // A donor never earns more than it donated (weights bound parts).
    const auto skew = proportionalSplit({1, 999}, 1000);
    EXPECT_LE(skew[0], 1);
    EXPECT_EQ(skew[0] + skew[1], 1000);
}

TEST(MarketAllocatorTest, MaxMinCapsRespectDeclarations)
{
    MaxMinAllocator maxmin;
    const auto out = maxmin.allocate({5, 50, 10}, 30);
    ASSERT_EQ(out.caps.size(), 3u);
    EXPECT_LE(out.caps[0], 5);
    EXPECT_LE(out.caps[1], 50);
    EXPECT_LE(out.caps[2], 10);
    EXPECT_EQ(std::accumulate(out.caps.begin(), out.caps.end(), Units{0}) +
                  out.idle,
              30);
    EXPECT_EQ(out.borrowed, 0);
    EXPECT_EQ(out.freeRemainder, 0);
}

TEST(MarketAllocatorTest, KarmaCapsAtFairShareWithoutCredits)
{
    // No endowment: nobody can borrow, so caps are min(declared, fair)
    // and the donated slack stays idle under strict Karma.
    KarmaAllocator karma(2, {.initialCredits = 0});
    const auto out = karma.allocate({2, 100}, 20);
    EXPECT_EQ(out.caps[0], 2);
    EXPECT_EQ(out.caps[1], 10);
    EXPECT_EQ(out.donated, 8);
    EXPECT_EQ(out.borrowed, 0);
    EXPECT_EQ(out.idle, 8);
}

TEST(MarketAllocatorTest, KarmaDonorEarnsWhenBorrowed)
{
    KarmaAllocator karma(2, {.initialCredits = 6});
    const auto out = karma.allocate({2, 100}, 20);
    // Tenant 1 buys donated units with its endowment.
    EXPECT_EQ(out.caps[0], 2);
    EXPECT_EQ(out.caps[1], 16);
    EXPECT_EQ(out.borrowed, 6);
    EXPECT_EQ(out.idle, 2);
    const CreditLedger *ledger = karma.ledger();
    ASSERT_NE(ledger, nullptr);
    // Donor earned every spent credit; borrower drained its endowment.
    EXPECT_EQ(ledger->balance(0), 12);
    EXPECT_EQ(ledger->balance(1), 0);
    EXPECT_EQ(ledger->totalBalance(), ledger->totalEndowment());
}

TEST(MarketAllocatorTest, KarmaBorrowLimitedBySpendable)
{
    KarmaAllocator karma(2, {.initialCredits = 3, .creditFloor = 1});
    const auto out = karma.allocate({0, 100}, 10);
    // fair = {5, 5}; tenant 1 wants 95 more but can spend only 2.
    EXPECT_EQ(out.caps[1], 7);
    EXPECT_EQ(out.borrowed, 2);
    EXPECT_EQ(karma.ledger()->balance(1), 1);
}

TEST(MarketAllocatorTest, KarmaRichestBorrowsFirst)
{
    KarmaAllocator karma(3, {.initialCredits = 0});
    // Seed asymmetric wealth through a first epoch: tenant 0 donates to
    // tenant 1 (tenant 2 has nothing to spend yet).
    (void)karma.allocate({0, 100, 4}, 12); // fair {4,4,4}: no credits yet
    CreditLedger *ledger = const_cast<CreditLedger *>(karma.ledger());
    ledger->donate(1, 5);
    ledger->donate(2, 2);
    // Both 1 and 2 want beyond fair; the richer tenant 1 buys first.
    const auto out = karma.allocate({0, 100, 100}, 12);
    EXPECT_EQ(out.caps[0], 0);
    EXPECT_GT(out.caps[1], out.caps[2]);
    EXPECT_EQ(out.borrowed, 4); // only 4 donated units existed
}

TEST(MarketAllocatorTest, KarmaWorkConservingHandsOutRemainderFree)
{
    KarmaAllocator karma(2, {.initialCredits = 0, .workConserving = true});
    const auto out = karma.allocate({2, 100}, 20);
    // Same scenario as KarmaCapsAtFairShareWithoutCredits, but the
    // donated slack now reaches the broke borrower unpriced.
    EXPECT_EQ(out.caps[0], 2);
    EXPECT_EQ(out.caps[1], 18);
    EXPECT_EQ(out.borrowed, 0);
    EXPECT_EQ(out.freeRemainder, 8);
    EXPECT_EQ(out.idle, 0);
    // Free units move no credits.
    EXPECT_EQ(karma.ledger()->totalBalance(),
              karma.ledger()->totalEndowment());
}

TEST(MarketAllocatorTest, KarmaStrictLeavesIdleWhenBorrowersBroke)
{
    KarmaAllocator karma(2, {.initialCredits = 0, .workConserving = false});
    const auto out = karma.allocate({2, 100}, 20);
    EXPECT_EQ(out.freeRemainder, 0);
    EXPECT_EQ(out.idle, 8);
}

// =====================================================================
// TenantMarket orchestration
// =====================================================================

std::vector<std::unique_ptr<TenantPolicy>>
honestPolicies(std::size_t n)
{
    std::vector<std::unique_ptr<TenantPolicy>> policies;
    for (std::size_t i = 0; i < n; ++i)
        policies.push_back(makeHonestPolicy());
    return policies;
}

TEST(MarketMarketTest, RunEpochAccumulatesAccounts)
{
    TenantMarket mkt(10, std::make_unique<MaxMinAllocator>(),
                     honestPolicies(2));
    mkt.runEpoch({3, 20});
    mkt.runEpoch({8, 1});
    const auto &accounts = mkt.accounts();
    EXPECT_EQ(accounts[0].trueIntegral, 11);
    EXPECT_EQ(accounts[0].declaredIntegral, 11); // honest
    EXPECT_EQ(accounts[0].allocatedIntegral, 11); // 3 then 8, never capped
    EXPECT_EQ(accounts[0].usefulIntegral, 11);
    EXPECT_EQ(accounts[1].allocatedIntegral, 7 + 1);
    EXPECT_EQ(accounts[1].usefulIntegral, 8);
    EXPECT_EQ(mkt.servableIntegral(), 10 + 9);
    EXPECT_EQ(mkt.epochsRun(), 2);
}

TEST(MarketMarketTest, LastEpochExposesCaps)
{
    TenantMarket mkt(10, std::make_unique<MaxMinAllocator>(),
                     honestPolicies(2));
    const auto epoch = mkt.runEpoch({4, 9});
    EXPECT_EQ(mkt.lastEpoch().caps, epoch.caps);
    EXPECT_EQ(mkt.lastEpoch().declared, (std::vector<Units>{4, 9}));
}

TEST(MarketMarketTest, CapsPlusIdleCoverCapacityEachEpoch)
{
    TenantMarket mkt(17, std::make_unique<KarmaAllocator>(
                             3, KarmaConfig{.initialCredits = 5}),
                     honestPolicies(3));
    for (Units d = 0; d < 30; d += 3) {
        const auto epoch = mkt.runEpoch({d, 30 - d, d / 2});
        const Units total = std::accumulate(epoch.caps.begin(),
                                            epoch.caps.end(), Units{0});
        EXPECT_EQ(total + epoch.allocation.idle, 17);
    }
    EXPECT_GE(mkt.idleIntegral(), 0);
}

// =====================================================================
// Tenant policies
// =====================================================================

PolicyContext
ctx(Units true_demand, Units fair, Credits spendable)
{
    PolicyContext c;
    c.trueDemand = true_demand;
    c.fairShare = fair;
    c.balance = spendable;
    c.spendable = spendable;
    return c;
}

TEST(MarketPolicyTest, HonestDeclaresTrueDemand)
{
    auto honest = makeHonestPolicy();
    EXPECT_EQ(honest->kind(), TenantKind::Honest);
    EXPECT_EQ(honest->declare(ctx(7, 50, 0)), 7);
    EXPECT_EQ(honest->declare(ctx(120, 50, 0)), 120);
}

TEST(MarketPolicyTest, GreedyInflatesAndNeverDonates)
{
    auto greedy = makeGreedyPolicy(3.0);
    EXPECT_EQ(greedy->kind(), TenantKind::Greedy);
    EXPECT_EQ(greedy->declare(ctx(40, 50, 0)), 120);
    // Below fair share it still claims the full fair share: no donation.
    EXPECT_EQ(greedy->declare(ctx(10, 50, 0)), 50);
    EXPECT_EQ(greedy->declare(ctx(0, 50, 0)), 50);
}

TEST(MarketPolicyTest, AdaptiveOverclaimsUntilReserveThenHonest)
{
    auto adaptive = makeAdaptivePolicy(2.0, 3);
    EXPECT_EQ(adaptive->kind(), TenantKind::Adaptive);
    // Rich: overclaims like greedy.
    EXPECT_EQ(adaptive->declare(ctx(10, 50, 10)), 50);
    EXPECT_EQ(adaptive->declare(ctx(40, 50, 10)), 80);
    // At (or below) the reserve: plays honest to rebuild credits.
    EXPECT_EQ(adaptive->declare(ctx(40, 50, 3)), 40);
    EXPECT_EQ(adaptive->declare(ctx(10, 50, 0)), 10);
}

TEST(MarketPolicyTest, FactoryMakesAllKinds)
{
    for (TenantKind kind :
         {TenantKind::Honest, TenantKind::Greedy, TenantKind::Adaptive}) {
        auto policy = makeTenantPolicy(kind);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->kind(), kind);
        EXPECT_FALSE(policy->name().empty());
    }
}

// =====================================================================
// Seeded property invariants
// =====================================================================

constexpr int kPropertySeeds = 20;
constexpr int kPropertyEpochs = 40;

struct PropertyWorld
{
    std::size_t tenants;
    Units capacity;
    std::vector<std::vector<Units>> demands; // [epoch][tenant]
    std::vector<TenantKind> kinds;
};

PropertyWorld
makeWorld(std::uint64_t seed)
{
    Rng rng(deriveRunSeed(0x6d6b7470ULL, seed));
    PropertyWorld world;
    world.tenants = static_cast<std::size_t>(rng.uniformInt(2, 6));
    world.capacity =
        rng.uniformInt(10, 60) * static_cast<Units>(world.tenants);
    const Units fair =
        world.capacity / static_cast<Units>(world.tenants);
    world.demands.resize(kPropertyEpochs);
    for (auto &epoch : world.demands) {
        epoch.resize(world.tenants);
        for (auto &d : epoch)
            d = rng.uniformInt(0, 2 * fair);
    }
    for (std::size_t i = 0; i < world.tenants; ++i) {
        const auto k = rng.uniformInt(0, 2);
        world.kinds.push_back(k == 0   ? TenantKind::Honest
                              : k == 1 ? TenantKind::Greedy
                                       : TenantKind::Adaptive);
    }
    return world;
}

std::vector<std::unique_ptr<TenantPolicy>>
worldPolicies(const PropertyWorld &world)
{
    std::vector<std::unique_ptr<TenantPolicy>> policies;
    for (TenantKind kind : world.kinds)
        policies.push_back(makeTenantPolicy(kind));
    return policies;
}

TEST(MarketPropertyTest, CreditsConservedAcrossEpochsStrict)
{
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto world = makeWorld(seed);
        TenantMarket mkt(
            world.capacity,
            std::make_unique<KarmaAllocator>(
                world.tenants, KarmaConfig{.initialCredits = 10}),
            worldPolicies(world));
        for (const auto &demand : world.demands) {
            mkt.runEpoch(demand);
            // Every credit a borrower spends lands at a donor: the total
            // balance is exactly the endowment after every epoch.
            ASSERT_EQ(mkt.ledger()->totalBalance(),
                      mkt.ledger()->totalEndowment())
                << "seed " << seed;
        }
    }
}

TEST(MarketPropertyTest, CreditsConservedAcrossEpochsWorkConserving)
{
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto world = makeWorld(seed);
        TenantMarket mkt(world.capacity,
                         std::make_unique<KarmaAllocator>(
                             world.tenants,
                             KarmaConfig{.initialCredits = 10,
                                         .workConserving = true}),
                         worldPolicies(world));
        for (const auto &demand : world.demands) {
            mkt.runEpoch(demand);
            ASSERT_EQ(mkt.ledger()->totalBalance(),
                      mkt.ledger()->totalEndowment())
                << "seed " << seed;
        }
    }
}

TEST(MarketPropertyTest, CapsWithinCapacityAndDeclarations)
{
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto world = makeWorld(seed);
        for (int scheme = 0; scheme < 2; ++scheme) {
            std::unique_ptr<MarketAllocator> allocator;
            if (scheme == 0)
                allocator = std::make_unique<MaxMinAllocator>();
            else
                allocator = std::make_unique<KarmaAllocator>(
                    world.tenants, KarmaConfig{.initialCredits = 10});
            TenantMarket mkt(world.capacity, std::move(allocator),
                             worldPolicies(world));
            for (const auto &demand : world.demands) {
                const auto epoch = mkt.runEpoch(demand);
                Units total = 0;
                for (std::size_t i = 0; i < world.tenants; ++i) {
                    ASSERT_GE(epoch.caps[i], 0);
                    ASSERT_LE(epoch.caps[i], epoch.declared[i])
                        << "seed " << seed << " scheme " << scheme;
                    total += epoch.caps[i];
                }
                ASSERT_LE(total, world.capacity);
                ASSERT_EQ(total + epoch.allocation.idle, world.capacity);
            }
        }
    }
}

TEST(MarketPropertyTest, WorkConservingKarmaIsParetoEfficient)
{
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto world = makeWorld(seed);
        TenantMarket mkt(world.capacity,
                         std::make_unique<KarmaAllocator>(
                             world.tenants,
                             KarmaConfig{.initialCredits = 10,
                                         .workConserving = true}),
                         worldPolicies(world));
        for (const auto &demand : world.demands) {
            const auto epoch = mkt.runEpoch(demand);
            if (epoch.allocation.idle == 0)
                continue;
            // Capacity may idle only when every declaration is met.
            for (std::size_t i = 0; i < world.tenants; ++i)
                ASSERT_EQ(epoch.caps[i], epoch.declared[i])
                    << "seed " << seed;
        }
    }
}

TEST(MarketPropertyTest, MaxMinIsParetoEfficient)
{
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto world = makeWorld(seed);
        TenantMarket mkt(world.capacity,
                         std::make_unique<MaxMinAllocator>(),
                         worldPolicies(world));
        for (const auto &demand : world.demands) {
            const auto epoch = mkt.runEpoch(demand);
            if (epoch.allocation.idle == 0)
                continue;
            for (std::size_t i = 0; i < world.tenants; ++i)
                ASSERT_EQ(epoch.caps[i], epoch.declared[i])
                    << "seed " << seed;
        }
    }
}

TEST(MarketPropertyTest, StrictKarmaIdlesOnlyWhenCappedTenantsBroke)
{
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto world = makeWorld(seed);
        TenantMarket mkt(
            world.capacity,
            std::make_unique<KarmaAllocator>(
                world.tenants, KarmaConfig{.initialCredits = 10}),
            worldPolicies(world));
        for (const auto &demand : world.demands) {
            const auto epoch = mkt.runEpoch(demand);
            if (epoch.allocation.idle == 0)
                continue;
            // Strict Karma leaves donated units idle only when every
            // still-capped tenant has no credits left to buy them.
            for (std::size_t i = 0; i < world.tenants; ++i) {
                if (epoch.caps[i] < epoch.declared[i]) {
                    ASSERT_EQ(mkt.ledger()->spendable(
                                  static_cast<TenantId>(i)),
                              0)
                        << "seed " << seed;
                }
            }
        }
    }
}

TEST(MarketPropertyTest, MarketTrajectoriesAreDeterministic)
{
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto world = makeWorld(seed);
        TenantMarket a(world.capacity,
                       std::make_unique<KarmaAllocator>(
                           world.tenants, KarmaConfig{.initialCredits = 10}),
                       worldPolicies(world));
        TenantMarket b(world.capacity,
                       std::make_unique<KarmaAllocator>(
                           world.tenants, KarmaConfig{.initialCredits = 10}),
                       worldPolicies(world));
        for (const auto &demand : world.demands) {
            const auto ea = a.runEpoch(demand);
            const auto eb = b.runEpoch(demand);
            ASSERT_EQ(ea.declared, eb.declared);
            ASSERT_EQ(ea.caps, eb.caps);
            ASSERT_EQ(ea.allocation.borrowed, eb.allocation.borrowed);
            ASSERT_EQ(ea.allocation.idle, eb.allocation.idle);
            for (TenantId t = 0; t < world.tenants; ++t)
                ASSERT_EQ(a.ledger()->balance(t), b.ledger()->balance(t));
        }
    }
}

// =====================================================================
// Strategy-proofness differential
// =====================================================================

constexpr int kStrategyTenants = 4;
constexpr int kStrategyEpochs = 96;
constexpr Units kStrategyCapacity = 200; // fair share 50/tenant
constexpr Credits kStrategyEndowment = 50;

/** Counter-phased diurnal unit demands: each tenant peaks while others
 *  trough, aggregate mean ~240 units vs 200 capacity, so the market is
 *  under standing contention and donations flow every epoch. */
std::vector<std::vector<Units>>
strategyDemands(std::uint64_t seed)
{
    std::vector<std::vector<double>> series;
    for (int t = 0; t < kStrategyTenants; ++t)
        series.push_back(phaseShiftedDiurnalSeries(
            kStrategyEpochs, 2000.0, 10000.0, 24.0, t * 6.0, 0.2,
            deriveRunSeed(0x6d6b7473ULL + seed, t)));
    std::vector<std::vector<Units>> demands(kStrategyEpochs);
    for (int e = 0; e < kStrategyEpochs; ++e) {
        demands[e].resize(kStrategyTenants);
        for (int t = 0; t < kStrategyTenants; ++t)
            demands[e][t] = static_cast<Units>(
                std::llround(series[t][static_cast<std::size_t>(e)] /
                             100.0));
    }
    return demands;
}

enum class Scheme
{
    MaxMin,
    KarmaStrict,
};

/** Tenant 0's long-term account when it runs `policy0` against honest
 *  tenants, under one allocation scheme. */
TenantAccount
tenant0Account(const std::vector<std::vector<Units>> &demands,
               Scheme scheme, std::unique_ptr<TenantPolicy> policy0)
{
    std::vector<std::unique_ptr<TenantPolicy>> policies;
    policies.push_back(std::move(policy0));
    for (int t = 1; t < kStrategyTenants; ++t)
        policies.push_back(makeHonestPolicy());
    std::unique_ptr<MarketAllocator> allocator;
    if (scheme == Scheme::MaxMin)
        allocator = std::make_unique<MaxMinAllocator>();
    else
        allocator = std::make_unique<KarmaAllocator>(
            kStrategyTenants,
            KarmaConfig{.initialCredits = kStrategyEndowment});
    TenantMarket mkt(kStrategyCapacity, std::move(allocator),
                     std::move(policies));
    for (const auto &demand : demands)
        mkt.runEpoch(demand);
    return mkt.accounts()[0];
}

TEST(MarketStrategyTest, OverclaimingRaisesAllocationUnderMaxMin)
{
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto demands = strategyDemands(seed);
        const auto honest =
            tenant0Account(demands, Scheme::MaxMin, makeHonestPolicy());
        const auto greedy =
            tenant0Account(demands, Scheme::MaxMin, makeGreedyPolicy());
        // Naive max-min rewards the overclaim: the water level treats
        // the inflated declaration as real demand, so the greedy tenant
        // hoards allocation it cannot use — grabbed from the honest
        // tenants' pools.
        EXPECT_GT(greedy.allocatedIntegral, honest.allocatedIntegral)
            << "seed " << seed;
    }
}

TEST(MarketStrategyTest, KarmaNeutralizesOverclaiming)
{
    // Slack on the *useful* gap: the greedy tenant never donates, so it
    // never earns credits — the only real units overclaiming can add
    // beyond the honest run are bought with the one-off endowment, plus
    // one largest-remainder rounding unit per epoch.
    const std::int64_t slack = kStrategyEndowment + kStrategyEpochs;
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto demands = strategyDemands(seed);
        const auto maxminGap =
            tenant0Account(demands, Scheme::MaxMin, makeGreedyPolicy())
                .allocatedIntegral -
            tenant0Account(demands, Scheme::MaxMin, makeHonestPolicy())
                .allocatedIntegral;
        const auto karmaHonest = tenant0Account(
            demands, Scheme::KarmaStrict, makeHonestPolicy());
        const auto karmaGreedy = tenant0Account(
            demands, Scheme::KarmaStrict, makeGreedyPolicy());
        const auto karmaGap = karmaGreedy.allocatedIntegral -
                              karmaHonest.allocatedIntegral;
        // Direction of the gap, not exact values: Karma must shrink the
        // overclaimer's allocation-integral gain well below max-min's
        // (under Karma the residual gain is hoarded fair share the
        // honest run donated, bounded by the donation volume; under
        // max-min the overclaimer also drags the water level its way).
        EXPECT_LT(2 * karmaGap, maxminGap) << "seed " << seed;
        // And gaming must not buy *useful* resources: whatever the
        // greedy tenant actually consumed beyond its honest self is
        // endowment burn-down, never a long-term income.
        EXPECT_LE(karmaGreedy.usefulIntegral,
                  karmaHonest.usefulIntegral + slack)
            << "seed " << seed;
    }
}

TEST(MarketStrategyTest, AdaptiveStrategistAlsoNeutralized)
{
    // The adaptive strategist donates to earn credits, then overclaims
    // while rich. Under max-min (no credits) it degenerates to honest,
    // so its benchmark gap is the greedy one — the best max-min attack.
    const std::int64_t slack = kStrategyEndowment + kStrategyEpochs;
    for (std::uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
        const auto demands = strategyDemands(seed);
        const auto maxminGap =
            tenant0Account(demands, Scheme::MaxMin, makeGreedyPolicy())
                .allocatedIntegral -
            tenant0Account(demands, Scheme::MaxMin, makeHonestPolicy())
                .allocatedIntegral;
        const auto karmaHonest = tenant0Account(
            demands, Scheme::KarmaStrict, makeHonestPolicy());
        const auto karmaAdaptive = tenant0Account(
            demands, Scheme::KarmaStrict, makeAdaptivePolicy());
        const auto karmaGap = karmaAdaptive.allocatedIntegral -
                              karmaHonest.allocatedIntegral;
        EXPECT_LT(2 * karmaGap, maxminGap) << "seed " << seed;
        EXPECT_LE(karmaAdaptive.usefulIntegral,
                  karmaHonest.usefulIntegral + slack)
            << "seed " << seed;
    }
}

// =====================================================================
// makeMarketController integration
// =====================================================================

class MarketControllerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        apps.push_back(makeMotivationShared(catalog, 0));
        apps.push_back(makeMotivationShared(catalog, 2));
        for (const Application &app : apps) {
            for (std::size_t i = 0; i < app.graphs.size(); ++i) {
                ServiceSpec svc;
                svc.id = app.graphs[i].service();
                svc.name = app.serviceNames[i];
                svc.graph = &app.graphs[i];
                svc.slaMs = 300.0;
                svc.workload = 8000.0;
                services.push_back(svc);
            }
        }
    }

    std::vector<MarketTenantServices>
    tenantServices() const
    {
        std::vector<MarketTenantServices> tenants;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            MarketTenantServices t;
            t.tenant = static_cast<TenantId>(a);
            for (const auto &graph : apps[a].graphs)
                for (MicroserviceId id : graph.nodes())
                    if (std::find(t.microservices.begin(),
                                  t.microservices.end(),
                                  id) == t.microservices.end())
                        t.microservices.push_back(id);
            tenants.push_back(std::move(t));
        }
        return tenants;
    }

    /** Deploy both tenants on counter-phased step workloads and run a
     *  controller, recording per-tenant container totals by minute. */
    struct RunResult
    {
        std::vector<std::vector<int>> tenantContainers; // [tenant][min]
        std::vector<double> worstP95;
        std::uint64_t requestsCompleted = 0;
    };

    RunResult
    run(const std::function<void(Simulation &, int)> &controller,
        const std::function<void(Simulation &, int)> &after = {})
    {
        SimConfig config;
        config.horizonMinutes = 8;
        config.warmupMinutes = 1;
        config.seed = 7;
        Simulation sim(catalog, config);
        sim.setBackgroundLoadAll(0.2, 0.2);
        int svc_index = 0;
        for (const ServiceSpec &svc : services) {
            ServiceWorkload workload;
            workload.id = svc.id;
            workload.graph = svc.graph;
            workload.slaMs = svc.slaMs;
            // Tenant 0 ramps up while tenant 1 ramps down.
            const bool first = svc_index < 2;
            workload.rateSeries =
                first ? stepSeries(8, 4000.0, 12000.0, 4)
                      : stepSeries(8, 12000.0, 4000.0, 4);
            sim.addService(workload);
            ++svc_index;
        }
        ErmsController planner(catalog, {});
        sim.applyPlan(planner.plan(services, {0.2, 0.2}));

        RunResult result;
        result.tenantContainers.resize(apps.size());
        const auto tenants = tenantServices();
        sim.setMinuteCallback([&](Simulation &s, int minute) {
            controller(s, minute);
            if (after)
                after(s, minute);
            for (std::size_t a = 0; a < tenants.size(); ++a) {
                int total = 0;
                for (MicroserviceId id : tenants[a].microservices)
                    total += s.containerCount(id);
                result.tenantContainers[a].push_back(total);
            }
            double worst = 0.0;
            for (const ServiceSpec &svc : services) {
                auto it = s.metrics().endToEndByMinute.find(svc.id);
                if (it == s.metrics().endToEndByMinute.end())
                    continue;
                worst = std::max(
                    worst,
                    it->second.window(static_cast<std::uint64_t>(minute))
                        .p95());
            }
            result.worstP95.push_back(worst);
        });
        sim.run();
        result.requestsCompleted = sim.metrics().requestsCompleted;
        return result;
    }

    MicroserviceCatalog catalog;
    std::vector<Application> apps;
    std::vector<ServiceSpec> services;
};

TEST_F(MarketControllerTest, CapsBindDeployedContainers)
{
    ErmsController controller(catalog, {});
    auto market = std::make_shared<TenantMarket>(
        12, std::make_unique<MaxMinAllocator>(), honestPolicies(2));
    const auto tenants = tenantServices();
    auto wrapped = makeMarketController(
        controller.makeAutoscaler(services), market, tenants);

    bool saw_binding_cap = false;
    const auto result =
        run(wrapped,
            [&](Simulation &s, int) {
                const MarketEpoch &epoch = market->lastEpoch();
                for (std::size_t a = 0; a < tenants.size(); ++a) {
                    int deployed = 0;
                    for (MicroserviceId id : tenants[a].microservices)
                        deployed += s.containerCount(id);
                    const auto floor_count = static_cast<Units>(
                        tenants[a].microservices.size());
                    ASSERT_LE(deployed,
                              std::max(epoch.caps[a], floor_count));
                    if (epoch.trueDemand[a] > epoch.caps[a])
                        saw_binding_cap = true;
                }
            });
    // The 12-unit market is far below what the autoscaler wants for
    // 12000 req/min, so the cap must have been binding.
    EXPECT_TRUE(saw_binding_cap);
    EXPECT_EQ(market->epochsRun(), 8);
    (void)result;
}

TEST_F(MarketControllerTest, WrapperNeverScalesUpAndKeepsFloor)
{
    ErmsController controller(catalog, {});
    auto market = std::make_shared<TenantMarket>(
        10, std::make_unique<MaxMinAllocator>(), honestPolicies(2));
    const auto tenants = tenantServices();

    // Record what the inner controller deployed before the trim.
    std::vector<std::vector<int>> before;
    auto inner = controller.makeAutoscaler(services);
    auto recorder = [&](Simulation &s, int minute) {
        inner(s, minute);
        before.emplace_back();
        for (const auto &t : tenants)
            for (MicroserviceId id : t.microservices)
                before.back().push_back(s.containerCount(id));
    };
    auto wrapped = makeMarketController(recorder, market, tenants);

    run(wrapped, [&](Simulation &s, int) {
        std::size_t k = 0;
        for (const auto &t : tenants) {
            for (MicroserviceId id : t.microservices) {
                const int now = s.containerCount(id);
                const int pre = before.back()[k++];
                ASSERT_LE(now, pre); // never scales up
                if (pre >= 1) {
                    ASSERT_GE(now, 1); // floor: one per deployed ms
                }
            }
        }
    });
}

TEST_F(MarketControllerTest, UnlimitedMarketIsByteIdenticalCalendar)
{
    ErmsController controller(catalog, {});
    const auto raw = run(controller.makeAutoscaler(services));

    auto market = std::make_shared<TenantMarket>(
        1'000'000, std::make_unique<KarmaAllocator>(
                       2, KarmaConfig{.initialCredits = 100}),
        honestPolicies(2));
    const auto wrapped = run(makeMarketController(
        controller.makeAutoscaler(services), market, tenantServices()));

    EXPECT_EQ(raw.tenantContainers, wrapped.tenantContainers);
    EXPECT_EQ(raw.worstP95, wrapped.worstP95); // bitwise-equal doubles
    EXPECT_EQ(raw.requestsCompleted, wrapped.requestsCompleted);
}

TEST_F(MarketControllerTest, ComposesWithBaselineAutoscaler)
{
    // The decorator wraps any controller shape, not just Erms.
    BaselineContext context;
    context.catalog = &catalog;
    context.interference = {0.2, 0.2};
    auto market = std::make_shared<TenantMarket>(
        12, std::make_unique<MaxMinAllocator>(), honestPolicies(2));
    const auto tenants = tenantServices();
    auto wrapped = makeMarketController(
        makeBaselineAutoscaler(std::make_shared<GrandSlamAllocator>(),
                               context, services),
        market, tenants);

    const auto result =
        run(wrapped, [&](Simulation &s, int) {
            const MarketEpoch &epoch = market->lastEpoch();
            for (std::size_t a = 0; a < tenants.size(); ++a) {
                int deployed = 0;
                for (MicroserviceId id : tenants[a].microservices)
                    deployed += s.containerCount(id);
                ASSERT_LE(deployed,
                          std::max(epoch.caps[a],
                                   static_cast<Units>(
                                       tenants[a].microservices.size())));
            }
        });
    EXPECT_EQ(market->epochsRun(), 8);
    (void)result;
}

TEST_F(MarketControllerTest, AccountsTrackControllerDemand)
{
    ErmsController controller(catalog, {});
    auto market = std::make_shared<TenantMarket>(
        12, std::make_unique<MaxMinAllocator>(), honestPolicies(2));
    const auto tenants = tenantServices();

    // Track the inner controller's deployments: those are the true
    // demands the market must account.
    std::vector<std::int64_t> wants(tenants.size(), 0);
    auto inner = controller.makeAutoscaler(services);
    auto recorder = [&](Simulation &s, int minute) {
        inner(s, minute);
        for (std::size_t a = 0; a < tenants.size(); ++a)
            for (MicroserviceId id : tenants[a].microservices)
                wants[a] += s.containerCount(id);
    };
    run(makeMarketController(recorder, market, tenants));

    for (std::size_t a = 0; a < tenants.size(); ++a) {
        EXPECT_EQ(market->accounts()[a].trueIntegral, wants[a]);
        EXPECT_LE(market->accounts()[a].usefulIntegral, wants[a]);
    }
}

} // namespace
} // namespace erms::market
