/**
 * @file
 * erms_perfbench: runs one benchmark workload and prints one JSON object
 * (metrics with unit and sample count, output checks, facts) on stdout.
 * perfbench/run.py builds this binary, adds provenance and prints the
 * benchmark's result line.
 *
 * Usage: erms_perfbench --workload <name> --seed <n> --seconds <s>
 *                       --trace <0|1> [--spans <path>]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: erms_perfbench --workload "
                 "<deathstar_chaos|taobao_sharded|plan_scale> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    std::string spansPath;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1") {
                usage();
                return 2;
            }
        } else if (key == "--spans") {
            spansPath = value;
        } else {
            usage();
            return 2;
        }
        if (end != nullptr && (*end != '\0' || end == value.c_str())) {
            std::fprintf(stderr, "malformed number for %s: %s\n", key.c_str(),
                         value.c_str());
            return 2;
        }
    }
    if (!(args.seconds > 0.0)) {
        usage();
        return 2;
    }

    Tracer tracer(args.trace);
    RunResult result;
    try {
        if (args.workload == "deathstar_chaos")
            result = runDeathstarChaos(args, tracer);
        else if (args.workload == "taobao_sharded")
            result = runTaobaoSharded(args, tracer);
        else if (args.workload == "plan_scale")
            result = runPlanScale(args, tracer);
        else {
            usage();
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "erms_perfbench: %s\n", e.what());
        return 1;
    }
    if (args.trace && !spansPath.empty() && !tracer.write(spansPath)) {
        std::fprintf(stderr, "erms_perfbench: cannot write %s\n",
                     spansPath.c_str());
        return 1;
    }

    std::string out = "{\"workload\": " + jsonString(args.workload) +
                      ", \"attempted\": " + std::to_string(result.attempted) +
                      ", \"failed\": " + std::to_string(result.failed) +
                      ", \"checks\": [";
    bool firstItem = true;
    for (const auto &[name, ok] : result.checks) {
        out += (firstItem ? "" : ", ") + std::string("{\"name\": ") +
               jsonString(name) + ", \"ok\": " + (ok ? "true" : "false") + "}";
        firstItem = false;
    }
    out += "], \"facts\": {";
    firstItem = true;
    for (const auto &[name, value] : result.facts) {
        out += (firstItem ? "" : ", ") + jsonString(name) + ": " +
               jsonString(value);
        firstItem = false;
    }
    out += "}, \"metrics\": {";
    firstItem = true;
    for (const auto &[name, metric] : result.metrics) {
        out += (firstItem ? "" : ", ") + jsonString(name) +
               ": {\"value\": " + jsonNumber(metric.value) +
               ", \"unit\": " + jsonString(metric.unit) +
               ", \"samples\": " + std::to_string(metric.samples) + "}";
        firstItem = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
