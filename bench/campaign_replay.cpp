/**
 * @file
 * Offline chaos-campaign archive/replay tool (docs/chaos_campaigns.md):
 *
 *   campaign_replay write  <path> [intensity] [controller] [arm]
 *   campaign_replay replay <path>
 *
 * `write` runs one named arm of the resilience battery (defaults:
 * med / erms / guarded) and archives it; `replay` parses an archive,
 * reruns the campaign from the archived config alone, and byte-compares
 * the per-minute rows and the perturbed scrape history. Exit status is
 * nonzero on any mismatch, so scripts/check.sh uses a write-then-replay
 * round trip (serial vs parallel runner env) as a determinism gate:
 * both modes calibrate the campaign's models on ERMS_RUNNER_THREADS
 * workers (bench::runnerOptionsFromEnv).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "fault/campaign.hpp"

using namespace erms;

namespace {

int
writeArchive(const std::string &path, const std::string &intensity,
             const std::string &controller, const std::string &arm)
{
    if (arm != "guarded" && arm != "naive") {
        std::cerr << "arm must be 'guarded' or 'naive', got '" << arm
                  << "'\n";
        return 2;
    }
    const CampaignConfig config =
        makeCampaignArm(intensity, controller, arm == "guarded");
    const CampaignResult result =
        runCampaign(config, bench::runnerOptionsFromEnv());
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 2;
    }
    out << archiveCampaign(config, result);
    out.close();
    std::printf("archived %s/%s/%s: %zu minutes, %zu scrapes, "
                "violation %.2f%% -> %s\n",
                intensity.c_str(), controller.c_str(), arm.c_str(),
                result.minutes.size(), result.perturbedHistory.size(),
                result.violationPct, path.c_str());
    return 0;
}

int
replayArchive(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "cannot open " << path << "\n";
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();

    const CampaignReplay replay =
        replayCampaign(buffer.str(), bench::runnerOptionsFromEnv());
    std::printf("replayed %s/%s/%s: %zu minutes (%s), %zu scrapes (%s)\n",
                replay.config.controller.c_str(),
                replay.config.guarded ? "guarded" : "naive",
                replay.config.corruption.active() ? "corrupted" : "clean",
                replay.archivedMinutes.size(),
                replay.minutesIdentical ? "identical" : "MISMATCH",
                replay.archivedScrapes,
                replay.historyIdentical ? "identical" : "MISMATCH");
    return replay.identical() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: campaign_replay write <path> [intensity] "
                     "[controller] [guarded|naive]\n"
                     "       campaign_replay replay <path>\n";
        return 2;
    }
    const std::string mode = argv[1];
    const std::string path = argv[2];
    try {
        if (mode == "write")
            return writeArchive(path, argc > 3 ? argv[3] : "med",
                                argc > 4 ? argv[4] : "erms",
                                argc > 5 ? argv[5] : "guarded");
        if (mode == "replay")
            return replayArchive(path);
    } catch (const ErmsError &err) {
        std::cerr << "error: " << err.what() << "\n";
        return 2;
    }
    std::cerr << "unknown mode '" << mode << "'\n";
    return 2;
}
