/**
 * @file
 * Registry of microservices: maps MicroserviceId to name, execution
 * profile, and (optionally) a profiled piecewise latency model. Shared by
 * the application catalog, the simulator, and the scaling pipeline.
 */

#ifndef ERMS_MODEL_CATALOG_HPP
#define ERMS_MODEL_CATALOG_HPP

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "model/latency_model.hpp"
#include "model/microservice_profile.hpp"

namespace erms {

/** Mutable registry of all microservices known to one experiment. */
class MicroserviceCatalog
{
  public:
    /** Register a microservice; returns its id. */
    MicroserviceId add(MicroserviceProfile profile);

    std::size_t size() const { return profiles_.size(); }

    // Inline: the simulator resolves a profile several times per
    // dispatched event, so the lookup must compile down to a bounds
    // check plus an index — not a cross-TU call.
    const MicroserviceProfile &
    profile(MicroserviceId id) const
    {
        checkId(id);
        return profiles_[id];
    }

    MicroserviceProfile &
    profile(MicroserviceId id)
    {
        checkId(id);
        return profiles_[id];
    }

    const std::string &name(MicroserviceId id) const;

    /** Look up an id by name; kInvalidMicroservice when absent. */
    MicroserviceId findByName(const std::string &name) const;

    /** Attach the (profiled or synthetic) latency model for a µs. */
    void setModel(MicroserviceId id, PiecewiseLatencyModel model);

    bool hasModel(MicroserviceId id) const;

    /** The attached model. The reference stays valid, and follows later
     *  setModel calls for the same id, for the catalog's lifetime.
     *  @throws ErmsError for an unknown id or one without a model. */
    const PiecewiseLatencyModel &
    model(MicroserviceId id) const
    {
        checkId(id);
        const std::optional<PiecewiseLatencyModel> &slot = models_[id];
        if (!slot)
            throwNoModel(id);
        return *slot;
    }

    /** All registered ids, ascending. */
    std::vector<MicroserviceId> ids() const;

  private:
    void
    checkId(MicroserviceId id) const
    {
        if (id >= profiles_.size())
            throwUnknownId(id);
    }

    [[noreturn]] void throwUnknownId(MicroserviceId id) const;
    [[noreturn]] void throwNoModel(MicroserviceId id) const;

    std::vector<MicroserviceProfile> profiles_;
    /** Indexed by id, parallel to profiles_. A deque, so add() never
     *  moves a model a caller holds a reference to. */
    std::deque<std::optional<PiecewiseLatencyModel>> models_;
};

} // namespace erms

#endif // ERMS_MODEL_CATALOG_HPP
