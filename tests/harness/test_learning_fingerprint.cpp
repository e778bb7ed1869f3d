// Behaviour fingerprint of the classic-runner scenarios: the paper's table
// and dynamic figure scenarios, the examples, the stress scenarios and the
// overhead analysis run with DQN pretraining, so every digest depends on
// every bit the train step computes, and the default arms on every kernel
// governor tick. The 64-bit FNV-1a digest of each scenario JSON must match
// the checked-in table. A change to the RL kernels (forward, backward,
// optimizer) or the governors that is not bit-identical moves a digest; a
// deliberate behaviour change re-pins it and says why.

#include <cstdlib>

#include "fingerprint.hpp"

namespace lotus::harness {
namespace {

// Set before the shared registry is built, so scenarios take smoke budgets.
const int kFastMode = []() { return ::setenv("LOTUS_BENCH_FAST", "1", 1); }();

// LOTUS_BENCH_FAST=1, harness seed 42, full ledgers.
const fingerprint::Table kExpected = {
    {"table1_frcnn_kitti", 0x728e498ce9cdf2ebULL},
    {"table1_frcnn_visdrone", 0x673f9ddfa541cca0ULL},
    {"table1_mrcnn_kitti", 0x81781d36d062af7eULL},
    {"table1_mrcnn_visdrone", 0x0e612dc40ca0c7e5ULL},
    {"table2_frcnn_kitti", 0xaaf504b74cf4f0cdULL},
    {"table2_frcnn_visdrone", 0x17faf1f638f04b28ULL},
    {"table2_mrcnn_kitti", 0x4c9b29041a959e85ULL},
    {"table2_mrcnn_visdrone", 0x0c5fd19ea5960f13ULL},
    {"fig7a_temp_changes", 0xb912f4972f1b3ce7ULL},
    {"fig7b_domain_changes", 0xc7a4e8e70780f9ceULL},
    {"example_quickstart", 0x0323ee6e5ff6b643ULL},
    {"example_autonomous_driving", 0xa98d5badcbdc3a5aULL},
    {"example_drone_mission", 0x30830b9363b76e60ULL},
    {"stress_cold_start", 0x1fa9d3f7aef11d7cULL},
    {"stress_heatwave", 0xeb1b8ea5edf0b153ULL},
    {"stress_mi11_heatwave", 0x8db7f85a43a9bbf7ULL},
    {"stress_domain_storm", 0x174e1160b51e07f9ULL},
    {"stress_constraint_sweep", 0x84b90e1ad72f78d1ULL},
    {"overhead_analysis", 0x42a640226bac2722ULL},
};

TEST(LearningFingerprint, ClassicRunnerScenariosMatchPinnedDigests) {
    ASSERT_EQ(kFastMode, 0);
    const auto& registry = ScenarioRegistry::instance();
    std::vector<const Scenario*> batch;
    for (const auto& [name, digest] : kExpected) batch.push_back(&registry.at(name));
    fingerprint::expect_table(fingerprint::digests(batch), kExpected,
                              "table1_*, table2_*, fig7*, example_*, stress_*, overhead_*");
}

} // namespace
} // namespace lotus::harness
