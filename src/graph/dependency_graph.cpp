#include "dependency_graph.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace erms {

DependencyGraph::DependencyGraph(ServiceId service, MicroserviceId root)
    : service_(service), root_(root)
{
    if (root == kInvalidMicroservice)
        throw GraphError("dependency graph requires a valid root");
    nodes_.push_back(root);
    info_.emplace_back();
    index_.emplace(root, 0);
}

void
DependencyGraph::addCall(MicroserviceId parent, MicroserviceId child,
                         int stage, double multiplicity)
{
    auto parent_it = index_.find(parent);
    if (parent_it == index_.end()) {
        throw GraphError("addCall: parent " + std::to_string(parent) +
                         " not in graph");
    }
    if (index_.count(child)) {
        throw GraphError("addCall: microservice " + std::to_string(child) +
                         " already appears in this graph (tree property)");
    }
    if (multiplicity <= 0.0)
        throw GraphError("addCall: multiplicity must be positive");

    // Keep calls ordered by stage, a new call last within its stage.
    NodeInfo &node = info_[parent_it->second];
    const auto pos = std::upper_bound(
        node.calls.begin(), node.calls.end(), stage,
        [](int s, const Call &call) { return s < call.stage; });
    const auto offset = pos - node.calls.begin();
    node.calls.insert(pos, Call{child, stage, multiplicity});
    node.callees.insert(node.callees.begin() + offset, nodes_.size());

    index_.emplace(child, nodes_.size());
    nodes_.push_back(child);
    NodeInfo child_info;
    child_info.parent = parent;
    info_.push_back(std::move(child_info));
}

bool
DependencyGraph::contains(MicroserviceId id) const
{
    return index_.count(id) > 0;
}

std::size_t
DependencyGraph::indexOf(MicroserviceId id) const
{
    auto it = index_.find(id);
    if (it == index_.end()) {
        throw GraphError("microservice " + std::to_string(id) +
                         " not in graph");
    }
    return it->second;
}

const DependencyGraph::NodeInfo &
DependencyGraph::info(MicroserviceId id) const
{
    return info_[indexOf(id)];
}

const std::vector<DependencyGraph::Call> &
DependencyGraph::calls(MicroserviceId parent) const
{
    return info(parent).calls;
}

std::vector<std::vector<DependencyGraph::Call>>
DependencyGraph::stages(MicroserviceId parent) const
{
    std::vector<std::vector<Call>> grouped;
    for (const Call &call : info(parent).calls) {
        if (grouped.empty() || grouped.back().front().stage != call.stage)
            grouped.emplace_back();
        grouped.back().push_back(call);
    }
    return grouped;
}

MicroserviceId
DependencyGraph::parent(MicroserviceId id) const
{
    return info(id).parent;
}

bool
DependencyGraph::isLeaf(MicroserviceId id) const
{
    return info(id).calls.empty();
}

std::unordered_map<MicroserviceId, double>
DependencyGraph::workloads(double root_rate) const
{
    const std::vector<double> gamma = workloadsByIndex(root_rate);
    std::unordered_map<MicroserviceId, double> result;
    result.reserve(nodes_.size());
    // Callers iterate the map, so its insertion order is part of the
    // contract: the root, then each node's callees in call order.
    result[root_] = gamma.front();
    for (const NodeInfo &node : info_) {
        for (std::size_t k = 0; k < node.calls.size(); ++k)
            result[node.calls[k].callee] = gamma[node.callees[k]];
    }
    return result;
}

std::vector<double>
DependencyGraph::workloadsByIndex(double root_rate) const
{
    ERMS_ASSERT(root_rate >= 0.0);
    std::vector<double> gamma(nodes_.size());

    // Parents precede their children in nodes_, so one forward pass
    // propagates multiplicities.
    gamma.front() = root_rate;
    for (std::size_t i = 0; i < info_.size(); ++i) {
        const NodeInfo &node = info_[i];
        for (std::size_t k = 0; k < node.calls.size(); ++k)
            gamma[node.callees[k]] = gamma[i] * node.calls[k].multiplicity;
    }
    return gamma;
}

std::vector<std::vector<MicroserviceId>>
DependencyGraph::rootToLeafPaths() const
{
    std::vector<std::vector<MicroserviceId>> paths;
    std::vector<MicroserviceId> current;

    const std::function<void(MicroserviceId)> walk =
        [&](MicroserviceId id) {
            current.push_back(id);
            const auto &node_calls = info(id).calls;
            if (node_calls.empty()) {
                paths.push_back(current);
            } else {
                for (const Call &call : node_calls)
                    walk(call.callee);
            }
            current.pop_back();
        };
    walk(root_);
    return paths;
}

std::vector<std::vector<MicroserviceId>>
DependencyGraph::criticalPaths(std::size_t max_paths) const
{
    // Partial critical paths under construction, extended node by node.
    std::vector<std::vector<MicroserviceId>> paths;
    bool truncated = false;

    // Returns the set of path *suffixes* through the subtree rooted at
    // id: each suffix starts with id and picks one branch per stage.
    const std::function<std::vector<std::vector<MicroserviceId>>(
        MicroserviceId)>
        suffixes = [&](MicroserviceId id)
        -> std::vector<std::vector<MicroserviceId>> {
        std::vector<std::vector<MicroserviceId>> result{{id}};
        for (const auto &stage : stages(id)) {
            // One branch choice per stage: cross product.
            std::vector<std::vector<MicroserviceId>> extended;
            for (const auto &prefix : result) {
                for (const Call &call : stage) {
                    for (const auto &branch : suffixes(call.callee)) {
                        if (extended.size() >= max_paths) {
                            truncated = true;
                            break;
                        }
                        std::vector<MicroserviceId> path = prefix;
                        path.insert(path.end(), branch.begin(),
                                    branch.end());
                        extended.push_back(std::move(path));
                    }
                }
            }
            result = std::move(extended);
        }
        return result;
    };

    paths = suffixes(root_);
    (void)truncated;
    if (paths.size() > max_paths)
        paths.resize(max_paths);
    return paths;
}

namespace {

/** Latency of the subtree at a graph-local index; appends its argmax
 *  critical path to `path` when one is requested. */
double
subtreeLatency(const DependencyGraph &graph, std::span<const double> values,
               std::size_t index, std::vector<MicroserviceId> *path)
{
    double latency = values[index];
    if (path)
        path->push_back(graph.nodes()[index]);
    const auto &calls = graph.callsAt(index);
    const auto &callees = graph.calleeIndices(index);
    std::vector<MicroserviceId> branch_path;
    std::vector<MicroserviceId> worst_path;
    for (std::size_t k = 0; k < calls.size();) {
        // One stage: the maximum over its parallel branches.
        const int stage = calls[k].stage;
        double worst = -1.0;
        worst_path.clear();
        for (; k < calls.size() && calls[k].stage == stage; ++k) {
            branch_path.clear();
            const double branch = subtreeLatency(
                graph, values, callees[k], path ? &branch_path : nullptr);
            if (branch > worst) {
                worst = branch;
                worst_path.swap(branch_path);
            }
        }
        latency += worst;
        if (path)
            path->insert(path->end(), worst_path.begin(), worst_path.end());
    }
    return latency;
}

} // namespace

double
endToEndLatency(const DependencyGraph &graph, std::span<const double> values,
                std::vector<MicroserviceId> *critical)
{
    ERMS_ASSERT(values.size() == graph.size());
    std::vector<MicroserviceId> path;
    const double latency =
        subtreeLatency(graph, values, 0, critical ? &path : nullptr);
    if (critical)
        *critical = std::move(path);
    return latency;
}

double
endToEndLatency(const DependencyGraph &graph,
                const std::unordered_map<MicroserviceId, double> &values,
                std::vector<MicroserviceId> *critical)
{
    std::vector<double> dense;
    dense.reserve(graph.size());
    for (MicroserviceId id : graph.nodes())
        dense.push_back(values.at(id));
    return endToEndLatency(graph, dense, critical);
}

int
DependencyGraph::depth() const
{
    int max_depth = 0;
    const std::function<int(MicroserviceId)> walk = [&](MicroserviceId id) {
        int deepest = 0;
        for (const Call &call : info(id).calls)
            deepest = std::max(deepest, walk(call.callee));
        return deepest + 1;
    };
    max_depth = walk(root_);
    return max_depth;
}

void
DependencyGraph::validate() const
{
    // Reachability: every node must be reachable from the root.
    std::size_t visited = 0;
    const std::function<void(MicroserviceId)> walk = [&](MicroserviceId id) {
        ++visited;
        for (const Call &call : info(id).calls) {
            if (info(call.callee).parent != id)
                throw GraphError("parent/child bookkeeping mismatch");
            walk(call.callee);
        }
    };
    walk(root_);
    if (visited != nodes_.size())
        throw GraphError("graph contains unreachable nodes");
    if (info(root_).parent != kInvalidMicroservice)
        throw GraphError("root must not have a parent");
}

std::string
DependencyGraph::toDot(
    const std::function<std::string(MicroserviceId)> &name_of) const
{
    std::ostringstream os;
    os << "digraph service_" << service_ << " {\n";
    for (MicroserviceId id : nodes_)
        os << "  n" << id << " [label=\"" << name_of(id) << "\"];\n";
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        for (const Call &call : info_[i].calls) {
            os << "  n" << nodes_[i] << " -> n" << call.callee
               << " [label=\"s" << call.stage << "\"];\n";
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace erms
