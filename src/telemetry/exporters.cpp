#include "exporters.hpp"

#include "common/error.hpp"

namespace erms::telemetry {

Labels
labelsFromString(const std::string &text)
{
    Labels labels;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find(';', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string pair = text.substr(pos, end - pos);
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            throw ErmsError("malformed label pair '" + pair + "'");
        labels.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
        pos = end + 1;
    }
    return labels;
}

void
shareSchemas(std::vector<TelemetrySnapshot> &snapshots)
{
    for (std::size_t i = 1; i < snapshots.size(); ++i) {
        auto &prev = snapshots[i - 1].schema;
        auto &schema = snapshots[i].schema;
        if (prev && schema && prev != schema && *prev == *schema)
            schema = prev;
    }
}

std::string
toJson(const std::vector<TelemetrySnapshot> &snapshots)
{
    return json::write(json::encode(snapshots));
}

std::vector<TelemetrySnapshot>
fromJson(const std::string &json)
{
    auto snapshots = json::read<std::vector<TelemetrySnapshot>>(json);
    shareSchemas(snapshots);
    return snapshots;
}

} // namespace erms::telemetry
