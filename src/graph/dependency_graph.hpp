/**
 * @file
 * Microservice dependency graphs (§2.1). A graph describes how one online
 * service fans out over microservices: each node's outgoing calls are
 * grouped into sequential *stages*; calls within the same stage execute in
 * parallel, and stages execute one after another (Fig. 1: T calls Url and
 * U in parallel — one stage — then calls C — a later stage).
 *
 * Production graphs behave like trees (§5.3.3), and Algorithm 1 relies on
 * that, so DependencyGraph enforces a tree over microservice ids: every
 * microservice appears at most once per graph and has exactly one parent.
 * The same microservice may of course appear in many different services'
 * graphs — that is exactly the sharing Erms exploits.
 */

#ifndef ERMS_GRAPH_DEPENDENCY_GRAPH_HPP
#define ERMS_GRAPH_DEPENDENCY_GRAPH_HPP

#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace erms {

/**
 * Tree-shaped call graph of one online service.
 */
class DependencyGraph
{
  public:
    /** One call edge from a parent microservice. */
    struct Call
    {
        MicroserviceId callee = kInvalidMicroservice;
        /** Sequential stage index; equal stages run in parallel. */
        int stage = 0;
        /** Average number of calls issued per parent invocation. */
        double multiplicity = 1.0;
    };
    // The simulator copies calls into its per-node stage cache and walks
    // them on every dispatched call; graph-local indices live beside them.
    static_assert(sizeof(Call) == 16, "Call must stay 16 bytes");

    DependencyGraph(ServiceId service, MicroserviceId root);

    /**
     * Add a call edge. The parent must already be in the graph; the child
     * must not be (tree property).
     * @throws GraphError on violations.
     */
    void addCall(MicroserviceId parent, MicroserviceId child, int stage,
                 double multiplicity = 1.0);

    ServiceId service() const { return service_; }
    MicroserviceId root() const { return root_; }

    bool contains(MicroserviceId id) const;
    std::size_t size() const { return nodes_.size(); }

    /** All microservices, root first, in insertion order. Parents always
     *  precede their children. A node's position here is its
     *  *graph-local index*. */
    const std::vector<MicroserviceId> &nodes() const { return nodes_; }

    /**
     * Graph-local index of a node: its position in nodes().
     * @throws GraphError if the node is not in the graph.
     */
    std::size_t indexOf(MicroserviceId id) const;

    /** Outgoing calls of a node, ordered by stage. */
    const std::vector<Call> &calls(MicroserviceId parent) const;

    /** Outgoing calls of the node at a graph-local index. */
    const std::vector<Call> &
    callsAt(std::size_t index) const
    {
        return info_[index].calls;
    }

    /** Graph-local indices of those calls' callees, parallel to
     *  callsAt(index). */
    const std::vector<std::size_t> &
    calleeIndices(std::size_t index) const
    {
        return info_[index].callees;
    }

    /** Outgoing calls grouped into stages (ascending stage index). */
    std::vector<std::vector<Call>> stages(MicroserviceId parent) const;

    /** Parent of a node; kInvalidMicroservice for the root. */
    MicroserviceId parent(MicroserviceId id) const;

    /** True if the node issues no downstream calls. */
    bool isLeaf(MicroserviceId id) const;

    /**
     * Per-microservice workload gamma_i given the service's request rate:
     * gamma_i = rate * product of multiplicities on the root path.
     */
    std::unordered_map<MicroserviceId, double>
    workloads(double root_rate) const;

    /** The same workloads indexed like nodes(). */
    std::vector<double> workloadsByIndex(double root_rate) const;

    /** All root-to-leaf microservice chains (tree paths; note these are
     *  NOT the paper's critical paths — see criticalPaths()). */
    std::vector<std::vector<MicroserviceId>> rootToLeafPaths() const;

    /**
     * Critical paths in the paper's sense (§2.1): a critical path visits
     * *every sequential stage* of each node it passes through, picking
     * one branch per parallel stage (Fig. 1: CP1 = {T, U, C} contains
     * both the stage-0 branch U and the stage-1 call C). End-to-end
     * latency is the max over critical paths of the sum of member
     * latencies. The number of such paths can grow combinatorially, so
     * enumeration stops after max_paths (remaining ones are dropped).
     */
    std::vector<std::vector<MicroserviceId>>
    criticalPaths(std::size_t max_paths = 4096) const;

    /** Longest root-to-leaf chain length in nodes. */
    int depth() const;

    /** Structural checks beyond construction-time enforcement. */
    void validate() const;

    /** Graphviz DOT rendering; name_of maps ids to labels. */
    std::string
    toDot(const std::function<std::string(MicroserviceId)> &name_of) const;

  private:
    struct NodeInfo
    {
        MicroserviceId parent = kInvalidMicroservice;
        std::vector<Call> calls;
        /** Graph-local index of each callee, parallel to calls. */
        std::vector<std::size_t> callees;
    };

    const NodeInfo &info(MicroserviceId id) const;

    ServiceId service_;
    MicroserviceId root_;
    std::vector<MicroserviceId> nodes_;
    /** Parallel to nodes_. */
    std::vector<NodeInfo> info_;
    std::unordered_map<MicroserviceId, std::size_t> index_;
};

/**
 * End-to-end latency composition over a graph: recursively, a node
 * contributes its own value plus, for each sequential stage, the maximum
 * over that stage's parallel branches. This is the latency semantics of
 * Fig. 1 and the quantity constrained by Eq. (2).
 *
 * @param values     per-microservice latency, indexed like
 *                   graph.nodes()
 * @param critical   optional out-parameter receiving one argmax critical
 *                   path (root plus, per stage, the members of the
 *                   worst branch)
 */
double endToEndLatency(const DependencyGraph &graph,
                       std::span<const double> values,
                       std::vector<MicroserviceId> *critical = nullptr);

/** endToEndLatency over per-microservice values keyed by id (every node
 *  must be present). */
double
endToEndLatency(const DependencyGraph &graph,
                const std::unordered_map<MicroserviceId, double> &values,
                std::vector<MicroserviceId> *critical = nullptr);

} // namespace erms

#endif // ERMS_GRAPH_DEPENDENCY_GRAPH_HPP
