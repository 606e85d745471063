/**
 * @file
 * Persistence for profiling results and scaling plans. The paper's
 * artifact stores days of offline-profiling output on disk and feeds it
 * to the online modules; this module provides the equivalent: fitted
 * piecewise models (including their decision-tree cutoffs) and global
 * plans round-trip through JSON documents (common/json.hpp).
 *
 * Format: one object per file whose "format" member names the kind
 * ("erms-models" or "erms-plan"), so a plan fed to readModels() throws.
 * Per-microservice maps are keyed by the decimal id, written in
 * ascending order. Reading is strict: a missing, unknown or duplicate
 * key, a number that does not fit its field, or trailing bytes throw an
 * ErmsError naming the key path.
 */

#ifndef ERMS_IO_SERIALIZATION_HPP
#define ERMS_IO_SERIALIZATION_HPP

#include <iosfwd>
#include <string>

#include "model/catalog.hpp"
#include "profiling/piecewise_fit.hpp"
#include "scaling/plan.hpp"

namespace erms {

/**
 * Serializable form of a fitted piecewise model: the two interval
 * parameter sets plus the cutoff decision tree (or a constant fallback).
 * PiecewiseLatencyModel itself holds the cutoff as an opaque function,
 * so fits that should be persisted are converted through this view.
 */
struct StoredModel
{
    IntervalParams below{};
    IntervalParams above{};
    /** Flattened cutoff tree nodes; empty = constant cutoff. */
    using TreeNode = DecisionTreeRegressor::Node;
    std::vector<TreeNode> cutoffTree;
    double cutoffFallback = 1.0;

    /** Rebuild the runtime model (cutoff evaluated over (C, M)). */
    PiecewiseLatencyModel toModel() const;

    /** Evaluate the stored cutoff directly (for tests). */
    double cutoffAt(const Interference &itf) const;
};

/** Capture a fit into its storable form. */
StoredModel storedFromFit(const PiecewiseFitResult &fit);

/** Write every stored model, keyed by microservice id. */
void writeModels(
    std::ostream &os,
    const std::unordered_map<MicroserviceId, StoredModel> &models);

/**
 * Parse a model file previously produced by writeModels.
 * @throws ErmsError on malformed input or another format.
 */
std::unordered_map<MicroserviceId, StoredModel>
readModels(std::istream &is);

/** Attach every stored model to the catalog. */
void attachModels(
    MicroserviceCatalog &catalog,
    const std::unordered_map<MicroserviceId, StoredModel> &models);

/** Write a global plan (policy, container counts, priority orders). */
void writePlan(std::ostream &os, const GlobalPlan &plan);

/**
 * Parse a plan previously produced by writePlan. Only deployment-facing
 * fields (policy, feasible, containers, priorityOrder, and the
 * totalContainers they sum to) round-trip; per-service diagnostics are
 * not persisted. @throws ErmsError on malformed input, another format,
 * or a negative container count.
 */
GlobalPlan readPlan(std::istream &is);

} // namespace erms

#endif // ERMS_IO_SERIALIZATION_HPP
