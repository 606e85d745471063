#include "exporters.hpp"

#include "common/error.hpp"

namespace erms::telemetry {

std::string
labelsToString(const Labels &labels)
{
    std::string out;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0)
            out += ';';
        out += labels[i].first;
        out += '=';
        out += labels[i].second;
    }
    return out;
}

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

std::string
seriesOrderProblem(const std::vector<SeriesSnapshot> &series)
{
    for (std::size_t i = 1; i < series.size(); ++i) {
        if (seriesBefore(series[i - 1], series[i]))
            continue;
        const SeriesSnapshot &s = series[i];
        return "series " + std::to_string(i) + " (" + s.name + "{" +
               labelsToString(s.labels) + "}) " +
               (seriesBefore(s, series[i - 1]) ? "sorts before"
                                               : "duplicates") +
               " series " + std::to_string(i - 1) +
               "; series must be strictly ascending by (name, labels)";
    }
    return {};
}

std::string
toJson(const std::vector<TelemetrySnapshot> &snapshots)
{
    return json::write(json::encode(snapshots));
}

std::vector<TelemetrySnapshot>
fromJson(const std::string &json)
{
    return json::read<std::vector<TelemetrySnapshot>>(json);
}

} // namespace erms::telemetry
