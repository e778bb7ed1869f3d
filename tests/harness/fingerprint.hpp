#pragma once
// Behaviour fingerprints shared by the fingerprint tests: run a batch of
// registry scenarios through the harness with full ledgers and digest each
// scenario JSON with 64-bit FNV-1a, build stamp removed. A test compares the
// digests to a pinned table; on a mismatch it prints the actual table so a
// deliberate behaviour change can re-pin it and say why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "harness/sinks.hpp"

namespace lotus::harness::fingerprint {

using Table = std::vector<std::pair<std::string, std::uint64_t>>;

inline std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// The document minus its build stamp: git-describe ids differ per commit
/// and per checkout, the behaviour under test does not.
inline std::string without_build_id(std::string doc) {
    const std::string key = ",\"build\":\"";
    const auto at = doc.find(key);
    if (at == std::string::npos) return doc;
    const auto close = doc.find('"', at + key.size());
    doc.erase(at, close + 1 - at);
    return doc;
}

/// Digest of every scenario in `batch`, run as one harness batch at jobs 4,
/// harness seed 42, full ledgers.
inline Table digests(const std::vector<const Scenario*>& batch) {
    HarnessConfig cfg;
    cfg.jobs = 4;
    cfg.summary_only = false;
    const ExperimentHarness harness(cfg);
    const auto results = harness.run(batch);
    Table actual;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto doc = scenario_json(*batch[i], results[i]);
        actual.emplace_back(batch[i]->name, fnv1a(without_build_id(doc)));
    }
    return actual;
}

/// Fails the current test, printing the actual table, unless it matches.
inline void expect_table(const Table& actual, const Table& expected, std::string_view what) {
    if (actual == expected) return;
    std::string table;
    for (const auto& [name, digest] : actual) {
        char line[128];
        std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n", name.c_str(),
                      static_cast<unsigned long long>(digest));
        table += line;
    }
    ADD_FAILURE() << what << " fingerprints differ from the pinned table; actual:\n"
                  << table;
}

} // namespace lotus::harness::fingerprint
