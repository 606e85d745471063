/**
 * @file
 * Tests for DependencyGraph: construction rules (tree property), stage
 * grouping, workload propagation with multiplicities, path enumeration,
 * and DOT export.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "graph/dependency_graph.hpp"

namespace erms {
namespace {

/** The Fig. 7 topology: T calls Url and U in parallel, then C. */
DependencyGraph
fig7Graph()
{
    DependencyGraph g(0, 0); // T = 0
    g.addCall(0, 1, 0);      // Url
    g.addCall(0, 2, 0);      // U
    g.addCall(0, 3, 1);      // C (later sequential stage)
    return g;
}

TEST(DependencyGraph, RootOnlyGraph)
{
    DependencyGraph g(5, 9);
    EXPECT_EQ(g.service(), 5u);
    EXPECT_EQ(g.root(), 9u);
    EXPECT_EQ(g.size(), 1u);
    EXPECT_TRUE(g.isLeaf(9));
    EXPECT_EQ(g.parent(9), kInvalidMicroservice);
    g.validate();
}

TEST(DependencyGraph, InvalidRootThrows)
{
    EXPECT_THROW(DependencyGraph(0, kInvalidMicroservice), GraphError);
}

TEST(DependencyGraph, AddCallRequiresExistingParent)
{
    DependencyGraph g(0, 0);
    EXPECT_THROW(g.addCall(7, 1, 0), GraphError);
}

TEST(DependencyGraph, TreePropertyRejectsSecondAppearance)
{
    DependencyGraph g = fig7Graph();
    EXPECT_THROW(g.addCall(1, 3, 0), GraphError); // C already present
    EXPECT_THROW(g.addCall(0, 0, 0), GraphError); // root re-added
}

TEST(DependencyGraph, RejectsNonPositiveMultiplicity)
{
    DependencyGraph g(0, 0);
    EXPECT_THROW(g.addCall(0, 1, 0, 0.0), GraphError);
    EXPECT_THROW(g.addCall(0, 1, 0, -1.0), GraphError);
}

TEST(DependencyGraph, StagesGroupParallelCalls)
{
    const DependencyGraph g = fig7Graph();
    const auto stages = g.stages(0);
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages[0].size(), 2u); // Url, U in parallel
    EXPECT_EQ(stages[1].size(), 1u); // C afterwards
    EXPECT_EQ(stages[1][0].callee, 3u);
}

TEST(DependencyGraph, CallsSortedByStageRegardlessOfInsertion)
{
    DependencyGraph g(0, 0);
    g.addCall(0, 1, 2);
    g.addCall(0, 2, 0);
    g.addCall(0, 3, 1);
    const auto &calls = g.calls(0);
    EXPECT_EQ(calls[0].callee, 2u);
    EXPECT_EQ(calls[1].callee, 3u);
    EXPECT_EQ(calls[2].callee, 1u);
}

TEST(DependencyGraph, WorkloadPropagationWithMultiplicity)
{
    DependencyGraph g(0, 0);
    g.addCall(0, 1, 0, 2.0); // each request calls 1 twice
    g.addCall(1, 2, 0, 3.0); // and each of those calls 2 thrice
    const auto workloads = g.workloads(100.0);
    EXPECT_DOUBLE_EQ(workloads.at(0), 100.0);
    EXPECT_DOUBLE_EQ(workloads.at(1), 200.0);
    EXPECT_DOUBLE_EQ(workloads.at(2), 600.0);
}

/** Ids that differ from their graph-local indices (root 50 is index 0),
 *  with calls inserted out of stage order. */
DependencyGraph
shuffledGraph()
{
    DependencyGraph g(0, 50);
    g.addCall(50, 41, 1, 2.0);
    g.addCall(50, 42, 0, 0.5);
    g.addCall(50, 43, 1, 3.0);
    g.addCall(42, 44, 0, 4.0);
    return g;
}

TEST(DependencyGraph, GraphLocalIndicesFollowNodesAndCalls)
{
    const DependencyGraph g = shuffledGraph();
    for (std::size_t i = 0; i < g.size(); ++i)
        EXPECT_EQ(g.indexOf(g.nodes()[i]), i);
    EXPECT_THROW(g.indexOf(7), GraphError);

    // Calls by stage, insertion order within a stage; callee indices
    // stay parallel to them.
    const std::size_t root = g.indexOf(50);
    const auto &calls = g.callsAt(root);
    ASSERT_EQ(calls.size(), 3u);
    EXPECT_EQ(&calls, &g.calls(50));
    EXPECT_EQ(calls[0].callee, 42u);
    EXPECT_EQ(calls[1].callee, 41u);
    EXPECT_EQ(calls[2].callee, 43u);
    ASSERT_EQ(g.calleeIndices(root).size(), 3u);
    for (std::size_t k = 0; k < calls.size(); ++k)
        EXPECT_EQ(g.nodes()[g.calleeIndices(root)[k]], calls[k].callee);
    EXPECT_TRUE(g.calleeIndices(g.indexOf(44)).empty());
}

TEST(DependencyGraph, WorkloadMapKeepsItsInsertionOrder)
{
    // Callers iterate workloads(), so the map must come out as if built
    // root first, then each node's callees in call order.
    const DependencyGraph g = shuffledGraph();
    std::unordered_map<MicroserviceId, double> expected;
    expected.reserve(g.size());
    expected[50] = 100.0;
    expected[42] = 50.0;
    expected[41] = 200.0;
    expected[43] = 300.0;
    expected[44] = 200.0;
    const auto workloads = g.workloads(100.0);
    EXPECT_TRUE(std::equal(workloads.begin(), workloads.end(),
                           expected.begin(), expected.end()));

    const std::vector<double> dense = g.workloadsByIndex(100.0);
    ASSERT_EQ(dense.size(), g.size());
    for (MicroserviceId id : g.nodes())
        EXPECT_EQ(dense[g.indexOf(id)], workloads.at(id)) << id;
}

TEST(DependencyGraph, RootToLeafPathsOfFig7)
{
    const DependencyGraph g = fig7Graph();
    const auto paths = g.rootToLeafPaths();
    ASSERT_EQ(paths.size(), 3u); // Url, U, C all leaves
    for (const auto &path : paths) {
        EXPECT_EQ(path.front(), 0u);
        EXPECT_EQ(path.size(), 2u);
    }
}

TEST(DependencyGraph, DepthOfChain)
{
    DependencyGraph g(0, 0);
    g.addCall(0, 1, 0);
    g.addCall(1, 2, 0);
    g.addCall(2, 3, 0);
    EXPECT_EQ(g.depth(), 4);
    EXPECT_EQ(fig7Graph().depth(), 2);
}

TEST(DependencyGraph, ParentLinks)
{
    const DependencyGraph g = fig7Graph();
    EXPECT_EQ(g.parent(1), 0u);
    EXPECT_EQ(g.parent(3), 0u);
    EXPECT_THROW(g.parent(99), GraphError);
}

TEST(DependencyGraph, ContainsAndNodes)
{
    const DependencyGraph g = fig7Graph();
    EXPECT_TRUE(g.contains(2));
    EXPECT_FALSE(g.contains(42));
    EXPECT_EQ(g.nodes().size(), 4u);
    EXPECT_EQ(g.nodes().front(), 0u); // root first
}

TEST(DependencyGraph, DotExportMentionsAllNodes)
{
    const DependencyGraph g = fig7Graph();
    const std::string dot =
        g.toDot([](MicroserviceId id) { return "ms" + std::to_string(id); });
    for (const char *label : {"ms0", "ms1", "ms2", "ms3"})
        EXPECT_NE(dot.find(label), std::string::npos) << label;
    EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(DependencyGraph, ValidatePassesOnWellFormedTree)
{
    DependencyGraph g = fig7Graph();
    g.addCall(1, 10, 0);
    g.addCall(10, 11, 1, 1.5);
    EXPECT_NO_THROW(g.validate());
}

} // namespace
} // namespace erms
