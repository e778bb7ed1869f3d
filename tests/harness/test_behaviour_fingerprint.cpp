// Behaviour fingerprint of the serving and fleet engines: every serve_*
// registry scenario runs with full per-request ledgers, and the 64-bit
// FNV-1a digest of its scenario JSON must match the checked-in table. Any
// change to dispatch order, admission, telemetry-free timing or summary
// arithmetic moves a digest. A refactor that claims to preserve behaviour
// keeps this table unchanged; a deliberate behaviour change re-pins it and
// says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "harness/sinks.hpp"

namespace lotus::harness {
namespace {

// The registry sizes its scenarios from LOTUS_BENCH_FAST at construction;
// set it before anything touches the shared instance so the fingerprint is
// taken at smoke budgets.
const int kFastMode = []() { return ::setenv("LOTUS_BENCH_FAST", "1", 1); }();

std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// The document minus its build stamp: git-describe ids differ per commit
/// and per checkout, the behaviour under test does not.
std::string without_build_id(std::string doc) {
    const std::string key = ",\"build\":\"";
    const auto at = doc.find(key);
    if (at == std::string::npos) return doc;
    const auto close = doc.find('"', at + key.size());
    doc.erase(at, close + 1 - at);
    return doc;
}

// LOTUS_BENCH_FAST=1, harness seed 42, full ledgers.
const std::vector<std::pair<std::string, std::uint64_t>> kExpected = {
    {"serve_light", 0x9104a367dbecd8faULL},
    {"serve_saturation", 0x6e61e0c0a58b5a40ULL},
    {"serve_burst_storm", 0xd3ddb2ea26b8c456ULL},
    {"serve_mixed_slo", 0x8b23b440dafbc80cULL},
    {"serve_diurnal", 0x096b88677f947a51ULL},
    {"serve_latency_attack", 0xac6de95887395003ULL},
    {"serve_fleet_saturation", 0x95f7c3f34c47d78bULL},
    {"serve_fleet_hetero", 0x3ee248693278ba6dULL},
    {"serve_fleet_diurnal_holdout", 0xb6eff1aa9f2b78caULL},
    {"serve_fleet_burst_migration", 0x7d0424a6ff6f08efULL},
};

TEST(BehaviourFingerprint, ServeScenariosMatchPinnedDigests) {
    ASSERT_EQ(kFastMode, 0);
    HarnessConfig cfg;
    cfg.jobs = 4;
    cfg.summary_only = false;
    const ExperimentHarness harness(cfg);

    const auto batch = ScenarioRegistry::instance().with_prefix("serve_");
    const auto results = harness.run(batch);
    std::vector<std::pair<std::string, std::uint64_t>> actual;
    auto first = results.begin();
    for (const auto* scenario : batch) {
        const auto last = first + static_cast<std::ptrdiff_t>(scenario->arms.size());
        const auto doc = scenario_json(*scenario, std::vector<EpisodeResult>(first, last));
        actual.emplace_back(scenario->name, fnv1a(without_build_id(doc)));
        first = last;
    }

    if (actual != kExpected) {
        std::string table;
        for (const auto& [name, digest] : actual) {
            char line[128];
            std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n", name.c_str(),
                          static_cast<unsigned long long>(digest));
            table += line;
        }
        ADD_FAILURE() << "serve_* fingerprints differ from the pinned table; actual:\n"
                      << table;
    }
}

} // namespace
} // namespace lotus::harness
