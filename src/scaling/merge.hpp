/**
 * @file
 * Graph merge (Algorithm 1, §4.2): collapse a dependency graph with
 * parallel structure into virtual microservices so the closed-form
 * latency-target allocation of Eq. (5) applies.
 *
 * Each microservice i contributes the workload-scaled latency relation
 * L_i = A_i / n_i + b_i with A_i = a_i * gamma_i. Merging rules:
 *
 *  - Sequential (Eqs. (6)-(9)): for children executing one after another,
 *      sqrtAR   = sum_j sqrt(A_j R_j)
 *      sqrtAoR  = sum_j sqrt(A_j / R_j)
 *      A* = sqrtAR * sqrtAoR,  R* = sqrtAR / sqrtAoR,  b* = sum_j b_j.
 *    (Equivalent to the paper's a*, R* with the workload folded in; the
 *    invariant A* R* = (sum_j sqrt(A_j R_j))^2 gives the exact minimum
 *    resource usage for any shared latency budget.)
 *
 *  - Parallel (Eqs. (10)-(12)): optimal targets across parallel branches
 *    are equal, so
 *      A** = sum_j A_j,  b** = max_j b_j,
 *      R** = sum_j w_j R_j / sum_j w_j with w_j = A_j
 *    (the paper weights by n_j; n_j is proportional to A_j when branch
 *    intercepts match, which makes this the same expression without
 *    needing the not-yet-known n_j).
 *
 * The merge tree also remembers its structure so computed targets can be
 * *unfolded* back onto real microservices (Fig. 8). Its topology depends
 * only on the graph, so it is built once and re-evaluated whenever the
 * per-microservice parameters change.
 */

#ifndef ERMS_SCALING_MERGE_HPP
#define ERMS_SCALING_MERGE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "graph/dependency_graph.hpp"

namespace erms {

/** Workload-scaled latency parameters of one (real or virtual) node. */
struct MergeParams
{
    double A = 0.0; ///< a_i * gamma_i (ms)
    double b = 0.0; ///< intercept (ms)
    double R = 0.0; ///< per-container dominant resource demand
};

/**
 * Algorithm 1's merge tree over one dependency graph, addressed by
 * graph-local index (position in DependencyGraph::nodes()). Leaves are
 * the real microservices; the virtual microservices are one sequential
 * vertex per calling node (the node itself, then each of its stages in
 * order) and one parallel vertex per stage with two or more branches.
 */
class MergeTree
{
  public:
    /** Build the tree's topology for a graph. */
    explicit MergeTree(const DependencyGraph &graph);

    /**
     * Merge per-microservice {A, b, R}, indexed like graph.nodes(),
     * bottom-up into every virtual microservice.
     */
    void evaluate(std::span<const MergeParams> params);

    /** The root virtual microservice, summarizing the whole service
     *  (valid after evaluate()). */
    const MergeParams &rootParams() const { return params_.front(); }

    /** Number of real plus virtual microservices. */
    std::size_t size() const { return vertices_.size(); }

    /**
     * Unfold a latency budget from the root down to real microservices
     * (Fig. 8) using the last evaluate(): sequential children split the
     * budget per Eq. (5); parallel children all inherit it.
     *
     * @param total_budget_ms latency budget for the root (the SLA)
     * @return latency targets (ms) indexed like graph.nodes()
     * @throws InfeasibleError if total_budget_ms <= the root intercept.
     */
    std::vector<double> unfold(double total_budget_ms) const;

  private:
    enum class Kind : std::uint8_t { Real, Sequential, Parallel };

    /** Every vertex's children occupy one contiguous block of slots after
     *  the vertex itself: the merge rules read them as one span, and
     *  reverse slot order is bottom-up. */
    struct Vertex
    {
        Kind kind = Kind::Real;
        /** Graph-local index: the real microservice, the sequence's own
         *  node, or the node whose stage a parallel vertex merges. */
        std::size_t node = 0;
        /** Parallel: the stage's first call in callsAt(node). */
        std::size_t call = 0;
        std::size_t first = 0; ///< first child slot
        std::size_t count = 0; ///< number of children
    };

    std::size_t nodeCount_ = 0;
    std::vector<Vertex> vertices_;
    std::vector<MergeParams> params_;
};

/** Sequential combination of Eqs. (7)-(9) over arbitrary arity. */
MergeParams mergeSequential(std::span<const MergeParams> parts);

/** Parallel combination of Eqs. (11)-(12) over arbitrary arity. */
MergeParams mergeParallel(std::span<const MergeParams> parts);

} // namespace erms

#endif // ERMS_SCALING_MERGE_HPP
