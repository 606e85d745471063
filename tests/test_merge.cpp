/**
 * @file
 * Tests for the graph merge (Algorithm 1): the closed-form invariants of
 * sequential (Eqs. (7)-(9)) and parallel (Eqs. (11)-(12)) virtual
 * microservices, budget unfolding (Fig. 8), and KKT optimality of the
 * resulting latency split.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "scaling/merge.hpp"

namespace erms {
namespace {

TEST(MergeSequential, InvariantARProduct)
{
    // A* R* must equal (sum_j sqrt(A_j R_j))^2 — this is exactly the
    // Cauchy-Schwarz bound that makes the merge lossless.
    const std::vector<MergeParams> parts{{4.0, 1.0, 1.0}, {9.0, 2.0, 4.0}};
    const MergeParams merged = mergeSequential(parts);
    const double expected =
        std::pow(std::sqrt(4.0 * 1.0) + std::sqrt(9.0 * 4.0), 2);
    EXPECT_NEAR(merged.A * merged.R, expected, 1e-9);
    EXPECT_DOUBLE_EQ(merged.b, 3.0);
}

TEST(MergeSequential, SingleElementIsIdentityInAR)
{
    const std::vector<MergeParams> parts{{5.0, 2.0, 3.0}};
    const MergeParams merged = mergeSequential(parts);
    EXPECT_NEAR(merged.A * merged.R, 5.0 * 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(merged.b, 2.0);
}

TEST(MergeSequential, MinimumResourceMatchesDirectOptimization)
{
    // For budget slack D over the chain, the minimum of
    // sum_i A_i R_i / t_i subject to sum t_i = D is
    // (sum sqrt(A_i R_i))^2 / D; the merged node reproduces it as
    // A* R* / D.
    const std::vector<MergeParams> parts{
        {2.0, 1.0, 0.5}, {7.0, 0.5, 2.0}, {1.0, 0.2, 1.0}};
    const MergeParams merged = mergeSequential(parts);
    double sqrt_sum = 0.0;
    for (const auto &p : parts)
        sqrt_sum += std::sqrt(p.A * p.R);
    const double d = 10.0;
    EXPECT_NEAR(merged.A * merged.R / d, sqrt_sum * sqrt_sum / d, 1e-9);
}

TEST(MergeParallel, SumsSlopesTakesMaxIntercept)
{
    const std::vector<MergeParams> parts{{4.0, 1.0, 1.0}, {6.0, 3.0, 2.0}};
    const MergeParams merged = mergeParallel(parts);
    EXPECT_DOUBLE_EQ(merged.A, 10.0);
    EXPECT_DOUBLE_EQ(merged.b, 3.0);
    // Resource demand: A-weighted average.
    EXPECT_NEAR(merged.R, (4.0 * 1.0 + 6.0 * 2.0) / 10.0, 1e-9);
}

TEST(MergeParallel, EqualBranchTargetsUseSameBudget)
{
    // With equal intercepts, serving both branches at latency budget x
    // costs A1/(x-b)*R1 + A2/(x-b)*R2 = (A1 R1 + A2 R2)/(x-b); the
    // merged node gives A** R** / (x - b**) — identical.
    const std::vector<MergeParams> parts{{3.0, 1.5, 2.0}, {5.0, 1.5, 1.0}};
    const MergeParams merged = mergeParallel(parts);
    const double x = 4.0;
    const double direct = 3.0 / (x - 1.5) * 2.0 + 5.0 / (x - 1.5) * 1.0;
    EXPECT_NEAR(merged.A * merged.R / (x - merged.b), direct, 1e-9);
}

/** The graph's merge tree evaluated with per-node params (indexed like
 *  nodes()). */
MergeTree
merged(const DependencyGraph &g, const std::vector<MergeParams> &params)
{
    MergeTree tree(g);
    tree.evaluate(params);
    return tree;
}

/** Helper: chain graph 0 -> 1 -> 2 with given params; ids are inserted
 *  in order, so each id is also its graph-local index. */
std::vector<MergeParams>
chainParams()
{
    return {{10.0, 2.0, 1.0}, {40.0, 5.0, 2.0}, {90.0, 3.0, 0.5}};
}

DependencyGraph
chainGraph()
{
    DependencyGraph g(0, 0);
    g.addCall(0, 1, 0);
    g.addCall(1, 2, 0);
    return g;
}

TEST(MergeTree, ChainTargetsMatchClosedForm)
{
    const auto params = chainParams();
    const DependencyGraph g = chainGraph();
    const MergeTree tree = merged(g, params);

    const double sla = 100.0;
    const auto targets = tree.unfold(sla);

    // Eq. (5): T_i - b_i proportional to sqrt(A_i R_i).
    double sqrt_sum = 0.0, b_sum = 0.0;
    for (const MergeParams &p : params) {
        sqrt_sum += std::sqrt(p.A * p.R);
        b_sum += p.b;
    }
    for (MicroserviceId id : g.nodes()) {
        const MergeParams &p = params[g.indexOf(id)];
        const double expected =
            p.b + std::sqrt(p.A * p.R) / sqrt_sum * (sla - b_sum);
        EXPECT_NEAR(targets.at(g.indexOf(id)), expected, 1e-9)
            << "ms " << id;
    }
}

TEST(MergeTree, ChainTargetsSumToSla)
{
    const MergeTree tree = merged(chainGraph(), chainParams());
    const auto targets = tree.unfold(75.0);
    double sum = 0.0;
    for (double t : targets)
        sum += t;
    EXPECT_NEAR(sum, 75.0, 1e-9);
}

TEST(MergeTree, ChainSplitIsKktOptimal)
{
    // Perturbing the optimal split along the budget simplex can only
    // increase total resource usage.
    const auto params = chainParams();
    const MergeTree tree = merged(chainGraph(), params);
    const double sla = 100.0;
    const auto targets = tree.unfold(sla);

    const auto resource = [&](const std::vector<double> &t) {
        double total = 0.0;
        for (std::size_t i = 0; i < params.size(); ++i)
            total += params[i].A / (t.at(i) - params[i].b) * params[i].R;
        return total;
    };

    const double optimal = resource(targets);
    Rng rng(4);
    for (int trial = 0; trial < 50; ++trial) {
        auto perturbed = targets;
        // Move epsilon of budget from one microservice to another.
        const std::size_t from = static_cast<std::size_t>(
            rng.uniformInt(0, 2));
        const std::size_t to = static_cast<std::size_t>(
            rng.uniformInt(0, 2));
        if (from == to)
            continue;
        const double eps =
            rng.uniform(0.0, 0.5 * (perturbed[from] -
                                    params.at(from).b));
        perturbed[from] -= eps;
        perturbed[to] += eps;
        EXPECT_GE(resource(perturbed), optimal - 1e-9);
    }
}

/** Fig. 7: T(0) -> {Url(1), U(2)} parallel, then C(3). */
DependencyGraph
fig7Graph()
{
    DependencyGraph g(0, 0);
    g.addCall(0, 1, 0);
    g.addCall(0, 2, 0);
    g.addCall(0, 3, 1);
    return g;
}

/** Per-node params of fig7Graph(), whose ids equal their indices. */
std::vector<MergeParams>
fig7Params()
{
    return {{10.0, 1.0, 1.0},
            {30.0, 2.0, 1.0},
            {50.0, 3.0, 2.0},
            {20.0, 2.0, 1.0}};
}

TEST(MergeTree, ParallelBranchesReceiveEqualTargets)
{
    const MergeTree tree = merged(fig7Graph(), fig7Params());
    const auto targets = tree.unfold(60.0);
    EXPECT_NEAR(targets.at(1), targets.at(2), 1e-9);
}

TEST(MergeTree, PathBudgetsEqualSlaOnEveryCriticalPath)
{
    const DependencyGraph g = fig7Graph();
    const MergeTree tree = merged(g, fig7Params());
    const double sla = 60.0;
    const auto targets = tree.unfold(sla);
    // Both critical paths T -> branch -> C consume exactly the SLA.
    EXPECT_NEAR(targets.at(0) + targets.at(1) + targets.at(3), sla, 1e-9);
    EXPECT_NEAR(targets.at(0) + targets.at(2) + targets.at(3), sla, 1e-9);
    // criticalPaths() enumerates exactly those two paths.
    const auto paths = g.criticalPaths();
    ASSERT_EQ(paths.size(), 2u);
    for (const auto &path : paths)
        EXPECT_EQ(path.size(), 3u);
    EXPECT_NEAR(endToEndLatency(g, targets), sla, 1e-9);
}

TEST(MergeTree, AllTargetsExceedIntercepts)
{
    const auto params = fig7Params();
    const MergeTree tree = merged(fig7Graph(), params);
    const auto targets = tree.unfold(30.0);
    for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_GT(targets.at(i), params[i].b) << "ms " << i;
}

TEST(MergeTree, InfeasibleBudgetThrows)
{
    const MergeTree tree = merged(fig7Graph(), fig7Params());
    // Root intercept: b_T + max(b_Url, b_U) + b_C = 1 + 3 + 2 = 6.
    EXPECT_THROW(tree.unfold(5.9), InfeasibleError);
    EXPECT_NO_THROW(tree.unfold(6.1));
}

TEST(MergeTree, RootParamsAggregateIntercepts)
{
    const MergeTree tree = merged(fig7Graph(), fig7Params());
    EXPECT_NEAR(tree.rootParams().b, 6.0, 1e-9);
}

TEST(MergeTree, MissingParamsIsInternalError)
{
    const std::vector<MergeParams> params{{1, 1, 1}};
    MergeTree tree(fig7Graph());
    EXPECT_THROW(tree.evaluate(params), std::logic_error);
}

TEST(MergeTree, ReevaluationMatchesAFreshTree)
{
    // A solver re-evaluates one tree on every refinement pass: nothing
    // from an earlier evaluate() may leak into the next.
    const DependencyGraph g = fig7Graph();
    MergeTree reused(g);
    std::vector<MergeParams> first = fig7Params();
    for (MergeParams &p : first)
        p.A *= 3.0;
    reused.evaluate(first);
    reused.evaluate(fig7Params());
    const MergeTree fresh = merged(g, fig7Params());
    EXPECT_EQ(reused.size(), fresh.size());
    EXPECT_EQ(reused.rootParams().A, fresh.rootParams().A);
    EXPECT_EQ(reused.rootParams().b, fresh.rootParams().b);
    EXPECT_EQ(reused.rootParams().R, fresh.rootParams().R);
    EXPECT_EQ(reused.unfold(60.0), fresh.unfold(60.0));
}

TEST(MergeTree, DeepRandomTreeUnfoldsConsistently)
{
    // Property: for any tree, every root-to-leaf path's target sum is
    // <= SLA, with equality on at least one path.
    Rng rng(21);
    for (int trial = 0; trial < 20; ++trial) {
        DependencyGraph g(0, 0);
        std::vector<MergeParams> params;
        params.push_back({rng.uniform(1, 10), rng.uniform(0.5, 2), 1.0});
        const int n = 12;
        for (MicroserviceId id = 1; id < n; ++id) {
            const MicroserviceId parent =
                static_cast<MicroserviceId>(rng.uniformInt(0, id - 1));
            g.addCall(parent, id, static_cast<int>(rng.uniformInt(0, 2)));
            params.push_back({rng.uniform(1, 100), rng.uniform(0.5, 3.0),
                              rng.uniform(0.5, 2.0)});
        }
        const MergeTree tree = merged(g, params);
        const double sla = 200.0;
        const auto targets = tree.unfold(sla);

        // Every critical path (one branch per parallel stage, all
        // sequential stages) stays within the SLA...
        for (const auto &path : g.criticalPaths()) {
            double sum = 0.0;
            for (MicroserviceId id : path)
                sum += targets.at(g.indexOf(id));
            EXPECT_LE(sum, sla + 1e-6);
        }
        // ...and the end-to-end composition consumes it exactly.
        EXPECT_NEAR(endToEndLatency(g, targets), sla, 1e-6);
    }
}

} // namespace
} // namespace erms
