#include "merge.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace erms {

namespace {

/** Guard against degenerate zero slopes; a tiny positive A keeps the
 *  closed forms well defined while contributing negligible budget. */
constexpr double kMinA = 1e-12;

double
clampA(double a)
{
    return a > kMinA ? a : kMinA;
}

} // namespace

MergeParams
mergeSequential(std::span<const MergeParams> parts)
{
    ERMS_ASSERT(!parts.empty());
    double sqrt_ar = 0.0;
    double sqrt_a_over_r = 0.0;
    double b_sum = 0.0;
    for (const MergeParams &p : parts) {
        ERMS_ASSERT(p.R > 0.0);
        const double a = clampA(p.A);
        sqrt_ar += std::sqrt(a * p.R);
        sqrt_a_over_r += std::sqrt(a / p.R);
        b_sum += p.b;
    }
    MergeParams merged;
    merged.A = sqrt_ar * sqrt_a_over_r;
    merged.R = sqrt_ar / sqrt_a_over_r;
    merged.b = b_sum;
    return merged;
}

MergeParams
mergeParallel(std::span<const MergeParams> parts)
{
    ERMS_ASSERT(!parts.empty());
    double a_sum = 0.0;
    double b_max = parts.front().b;
    double weighted_r = 0.0;
    for (const MergeParams &p : parts) {
        ERMS_ASSERT(p.R > 0.0);
        const double a = clampA(p.A);
        a_sum += a;
        b_max = std::max(b_max, p.b);
        weighted_r += a * p.R;
    }
    MergeParams merged;
    merged.A = a_sum;
    merged.b = b_max;
    merged.R = weighted_r / a_sum;
    return merged;
}

MergeTree::MergeTree(const DependencyGraph &graph)
    : nodeCount_(graph.size())
{
    // A node's subtree is the node alone if it calls nothing, else its
    // sequence: the node's own latency plus each stage in order.
    const auto subtree = [&graph](std::size_t node) {
        Vertex vertex;
        vertex.kind = graph.callsAt(node).empty() ? Kind::Real
                                                  : Kind::Sequential;
        vertex.node = node;
        return vertex;
    };

    // Slot 0 is the root's subtree; expanding a slot appends its children.
    vertices_.push_back(subtree(0));
    for (std::size_t slot = 0; slot < vertices_.size(); ++slot) {
        const Vertex vertex = vertices_[slot];
        const auto &calls = graph.callsAt(vertex.node);
        const auto &callees = graph.calleeIndices(vertex.node);
        const std::size_t first = vertices_.size();
        if (vertex.kind == Kind::Sequential) {
            Vertex self;
            self.node = vertex.node;
            vertices_.push_back(self);
            // Within a stage, branches run in parallel.
            for (std::size_t k = 0; k < calls.size();) {
                std::size_t end = k + 1;
                while (end < calls.size() &&
                       calls[end].stage == calls[k].stage)
                    ++end;
                if (end - k == 1) {
                    vertices_.push_back(subtree(callees[k]));
                } else {
                    Vertex stage;
                    stage.kind = Kind::Parallel;
                    stage.node = vertex.node;
                    stage.call = k;
                    vertices_.push_back(stage);
                }
                k = end;
            }
        } else if (vertex.kind == Kind::Parallel) {
            const int stage = calls[vertex.call].stage;
            for (std::size_t k = vertex.call;
                 k < calls.size() && calls[k].stage == stage; ++k)
                vertices_.push_back(subtree(callees[k]));
        }
        vertices_[slot].first = first;
        vertices_[slot].count = vertices_.size() - first;
    }
    params_.resize(vertices_.size());
}

void
MergeTree::evaluate(std::span<const MergeParams> params)
{
    ERMS_ASSERT_MSG(params.size() == nodeCount_,
                    "merge parameters must cover every graph node");
    for (std::size_t slot = vertices_.size(); slot-- > 0;) {
        const Vertex &vertex = vertices_[slot];
        const std::span<const MergeParams> children(
            params_.data() + vertex.first, vertex.count);
        switch (vertex.kind) {
          case Kind::Real:
            params_[slot] = params[vertex.node];
            params_[slot].A = std::max(params_[slot].A, kMinA);
            break;
          case Kind::Sequential:
            params_[slot] = mergeSequential(children);
            break;
          case Kind::Parallel:
            params_[slot] = mergeParallel(children);
            break;
        }
    }
}

std::vector<double>
MergeTree::unfold(double total_budget_ms) const
{
    const MergeParams &root_params = rootParams();
    if (total_budget_ms <= root_params.b) {
        throw InfeasibleError(
            "latency budget " + std::to_string(total_budget_ms) +
            "ms does not exceed the aggregate intercept " +
            std::to_string(root_params.b) + "ms");
    }

    // Top-down: each vertex hands its latency budget to its children.
    std::vector<double> budget(vertices_.size());
    std::vector<double> targets(nodeCount_);
    budget.front() = total_budget_ms;
    for (std::size_t slot = 0; slot < vertices_.size(); ++slot) {
        const Vertex &vertex = vertices_[slot];
        const std::size_t end = vertex.first + vertex.count;
        switch (vertex.kind) {
          case Kind::Real:
            targets[vertex.node] = budget[slot];
            break;
          case Kind::Parallel:
            // Eq. (10): parallel branches share the same target.
            for (std::size_t child = vertex.first; child < end; ++child)
                budget[child] = budget[slot];
            break;
          case Kind::Sequential: {
            // Eq. (5): T_j - b_j proportional to sqrt(A_j R_j) within the
            // slack budget - sum_j b_j.
            double b_sum = 0.0;
            double sqrt_ar_sum = 0.0;
            for (std::size_t child = vertex.first; child < end; ++child) {
                const MergeParams &p = params_[child];
                b_sum += p.b;
                sqrt_ar_sum += std::sqrt(std::max(p.A, kMinA) * p.R);
            }
            const double slack = budget[slot] - b_sum;
            ERMS_ASSERT_MSG(sqrt_ar_sum > 0.0, "degenerate merge node");
            for (std::size_t child = vertex.first; child < end; ++child) {
                const MergeParams &p = params_[child];
                const double share =
                    std::sqrt(std::max(p.A, kMinA) * p.R) / sqrt_ar_sum;
                budget[child] = p.b + share * slack;
            }
            break;
          }
        }
    }
    return targets;
}

} // namespace erms
