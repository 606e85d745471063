#include "catalog.hpp"

#include "common/error.hpp"

namespace erms {

MicroserviceId
MicroserviceCatalog::add(MicroserviceProfile profile)
{
    const MicroserviceId id =
        static_cast<MicroserviceId>(profiles_.size());
    profiles_.push_back(std::move(profile));
    models_.emplace_back();
    return id;
}

void
MicroserviceCatalog::throwUnknownId(MicroserviceId id) const
{
    throw ErmsError("unknown microservice id " + std::to_string(id));
}

const std::string &
MicroserviceCatalog::name(MicroserviceId id) const
{
    return profile(id).name;
}

MicroserviceId
MicroserviceCatalog::findByName(const std::string &name) const
{
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
        if (profiles_[i].name == name)
            return static_cast<MicroserviceId>(i);
    }
    return kInvalidMicroservice;
}

void
MicroserviceCatalog::setModel(MicroserviceId id, PiecewiseLatencyModel model)
{
    checkId(id);
    models_[id] = std::move(model);
}

bool
MicroserviceCatalog::hasModel(MicroserviceId id) const
{
    return id < models_.size() && models_[id].has_value();
}

void
MicroserviceCatalog::throwNoModel(MicroserviceId id) const
{
    throw ErmsError("no latency model attached for microservice " +
                    std::to_string(id) + " (" + name(id) + ")");
}

std::vector<MicroserviceId>
MicroserviceCatalog::ids() const
{
    std::vector<MicroserviceId> out(profiles_.size());
    for (std::size_t i = 0; i < profiles_.size(); ++i)
        out[i] = static_cast<MicroserviceId>(i);
    return out;
}

} // namespace erms
