#include "serialization.hpp"

#include <istream>
#include <iterator>
#include <memory>
#include <ostream>

#include "common/json.hpp"
#include "profiling/decision_tree.hpp"

namespace erms {

namespace {

constexpr json::Name<SharingPolicy> kPolicyNames[] = {
    {SharingPolicy::Priority, "priority"},
    {SharingPolicy::FcfsSharing, "fcfs"},
    {SharingPolicy::NonSharing, "non-sharing"},
};

struct ModelFile
{
    std::unordered_map<MicroserviceId, StoredModel> models;
};

template <class V>
void
describe(V &v, ModelFile &file)
{
    v.constant("format", "erms-models");
    v.field("models", file.models);
}

std::string
slurp(std::istream &is)
{
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

} // namespace

template <class V>
void
describe(V &v, IntervalParams &p)
{
    v.field("alpha", p.alpha);
    v.field("beta", p.beta);
    v.field("c", p.c);
    v.field("b", p.b);
}

template <class V>
void
describe(V &v, DecisionTreeRegressor::Node &node)
{
    v.field("feature_index", node.featureIndex);
    v.field("threshold", node.threshold);
    v.field("value", node.value);
    v.field("left", node.left);
    v.field("right", node.right);
}

template <class V>
void
describe(V &v, StoredModel &model)
{
    v.field("below", model.below);
    v.field("above", model.above);
    v.field("cutoff_fallback", model.cutoffFallback);
    v.field("cutoff_tree", model.cutoffTree);
}

/** A plan file: the deployment-facing fields of a plan. */
template <class V>
void
describe(V &v, GlobalPlan &plan)
{
    v.constant("format", "erms-plan");
    v.field("policy", plan.policy, kPolicyNames);
    v.field("feasible", plan.feasible);
    v.field("containers", plan.containers);
    v.field("priority_order", plan.priorityOrder);
}

PiecewiseLatencyModel
StoredModel::toModel() const
{
    auto tree = std::make_shared<DecisionTreeRegressor>();
    if (!cutoffTree.empty())
        tree->restore(cutoffTree);
    const double fallback = cutoffFallback;
    return PiecewiseLatencyModel(
        below, above, [tree, fallback](const Interference &itf) {
            if (tree->trained()) {
                return std::max(
                    1.0, tree->predict({itf.cpuUtil, itf.memUtil}));
            }
            return fallback;
        });
}

double
StoredModel::cutoffAt(const Interference &itf) const
{
    return toModel().cutoff(itf);
}

StoredModel
storedFromFit(const PiecewiseFitResult &fit)
{
    StoredModel stored;
    stored.below = fit.below;
    stored.above = fit.above;
    stored.cutoffFallback = fit.cutoffFallback;
    if (fit.cutoffTree && fit.cutoffTree->trained())
        stored.cutoffTree = fit.cutoffTree->nodes();
    return stored;
}

void
writeModels(std::ostream &os,
            const std::unordered_map<MicroserviceId, StoredModel> &models)
{
    os << json::write(json::encode(ModelFile{models}));
}

std::unordered_map<MicroserviceId, StoredModel>
readModels(std::istream &is)
{
    return json::read<ModelFile>(slurp(is)).models;
}

void
attachModels(MicroserviceCatalog &catalog,
             const std::unordered_map<MicroserviceId, StoredModel> &models)
{
    for (const auto &[id, stored] : models)
        catalog.setModel(id, stored.toModel());
}

void
writePlan(std::ostream &os, const GlobalPlan &plan)
{
    os << json::write(json::encode(plan));
}

GlobalPlan
readPlan(std::istream &is)
{
    GlobalPlan plan = json::read<GlobalPlan>(slurp(is));
    for (const auto &[id, count] : plan.containers) {
        if (count < 0)
            json::fail("containers." + std::to_string(id),
                       "negative container count");
        plan.totalContainers += count;
    }
    return plan;
}

} // namespace erms
