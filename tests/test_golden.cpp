/**
 * @file
 * Golden-file regression suite: each scenario's output must match the
 * committed table under tests/golden/ byte for byte (doubles are
 * hexfloats, so the comparison is ULP-exact). After an intentional
 * behaviour change, regenerate with scripts/regen_golden.sh and commit
 * the diff alongside the change that caused it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "golden_scenarios.hpp"

namespace erms {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Point at the first differing line so a drift is diagnosable without
 *  an external diff. */
void
expectSame(const std::string &expected, const std::string &actual,
           const std::string &file)
{
    if (expected == actual) {
        SUCCEED();
        return;
    }
    std::istringstream exp(expected), act(actual);
    std::string eline, aline;
    int line = 1;
    while (true) {
        const bool has_e = static_cast<bool>(std::getline(exp, eline));
        const bool has_a = static_cast<bool>(std::getline(act, aline));
        if (!has_e && !has_a)
            break;
        if (!has_e || !has_a || eline != aline) {
            FAIL() << file << " drifted at line " << line
                   << "\n  golden: " << (has_e ? eline : "<end of file>")
                   << "\n  actual: " << (has_a ? aline : "<end of file>")
                   << "\nIf the change is intentional, run "
                      "scripts/regen_golden.sh and commit the diff.";
            return;
        }
        ++line;
    }
    FAIL() << file << " differs (line endings or trailing bytes)";
}

class GoldenFile : public ::testing::TestWithParam<golden::Scenario>
{
};

TEST_P(GoldenFile, MatchesCommittedTable)
{
    const golden::Scenario &scenario = GetParam();
    const std::string path =
        std::string(ERMS_GOLDEN_DIR) + "/" + scenario.file;
    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden file " << path
        << " — run scripts/regen_golden.sh and commit the result";
    expectSame(expected, scenario.produce(), scenario.file);
}

std::string
scenarioName(const ::testing::TestParamInfo<golden::Scenario> &info)
{
    std::string name = info.param.file;
    const auto dot = name.find('.');
    if (dot != std::string::npos)
        name.resize(dot);
    return name;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenFile,
                         ::testing::ValuesIn(golden::scenarios()),
                         scenarioName);

/**
 * Sharded differential: ERMS_SHARDS=1 routes validation through the
 * sharded coordinator (src/shard) with a single shard — coordinated
 * minute stepping, merged metrics, the full lockstep machinery — which
 * must reproduce the unsharded engine byte for byte. Any drift in the
 * pause/resume event ordering or the metric merge shows up here.
 */
TEST(ShardedDifferential, SingleShardMatchesUnshardedByteForByte)
{
    unsetenv("ERMS_SHARDS");
    const std::string direct = golden::fig12Golden();
    setenv("ERMS_SHARDS", "1", 1);
    const std::string sharded = golden::fig12Golden();
    unsetenv("ERMS_SHARDS");
    expectSame(direct, sharded, "fig12 (sharded K=1 vs unsharded)");
}

} // namespace
} // namespace erms
