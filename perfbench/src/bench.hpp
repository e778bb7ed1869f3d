#pragma once
// perfbench: the repository benchmark.
//
// One process runs one workload with a single harness worker and reports
// the end-to-end metrics (untraced binary) or the per-layer metrics (traced
// binary). The library is driven only through its public entry points:
// ScenarioRegistry, ExperimentHarness::run, the Scenario/FleetConfig
// structs, scenario_json, TelemetrySink and prof::capture. Every layer
// boundary the traced run times sits in this directory, never in src/.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "harness/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// --- workloads ---------------------------------------------------------------

struct Workload {
    std::string name;
    /// Arm whose ledger gives the sim metrics; empty = the scenario's only arm.
    std::string headline_arm;
    /// Record sim-time telemetry and write it beside the scenario document.
    bool telemetry = false;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Everything that happens before the first episode: registry build,
/// scenario lookup or ad-hoc construction, and config validation (throws
/// std::runtime_error on an invalid config).
[[nodiscard]] lotus::harness::Scenario resolve_scenario(const Workload& w);

/// One harness worker, full ledgers, the workload's telemetry switch.
[[nodiscard]] lotus::harness::HarnessConfig harness_config(const Workload& w,
                                                           std::uint64_t seed);

// --- outputs -----------------------------------------------------------------

/// Simulated-clock metrics of the headline arm plus the frame count of all
/// arms. Deterministic for a given seed.
struct SimMetrics {
    std::size_t frames = 0;  // requests (served + shed) / recorded iterations, all arms
    std::size_t samples = 0; // latency samples of the headline arm
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double std_ms = 0.0;
    double slo_miss_frac = 0.0;
    double peak_temp_c = 0.0;
};

[[nodiscard]] SimMetrics sim_metrics(const Workload& w,
                                     const std::vector<lotus::harness::EpisodeResult>& results);

/// Structural checks of one pass's episodes: every arm ran, every request
/// is accounted for, metrics are finite. Returns one message per failing
/// episode (empty = all good).
[[nodiscard]] std::vector<std::string> check_episodes(
    const lotus::harness::Scenario& scenario,
    const std::vector<lotus::harness::EpisodeResult>& results);

/// The seven files TelemetrySink writes per episode (rollups on).
[[nodiscard]] const std::vector<std::string>& telemetry_artifacts();

/// 64-bit FNV-1a.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

// --- traced-run layers -------------------------------------------------------

struct HookStats {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/// Calls into every governor built by a timed arm (one harness worker, so
/// plain counters suffice).
struct GovernorStats {
    HookStats decide; // on_frame_start + on_post_rpn
    HookStats learn;  // on_frame_end
    HookStats tick;   // on_tick
};

[[nodiscard]] GovernorStats& governor_stats();

/// Copy of `scenario` whose arms build pass-through governors that time
/// each hook into governor_stats(). Outputs are byte-identical to the
/// unwrapped scenario.
[[nodiscard]] lotus::harness::Scenario with_timed_governors(lotus::harness::Scenario scenario);

struct AllocCounts {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

/// Allocations since process start; nullopt in a binary without the
/// counting allocator.
[[nodiscard]] std::optional<AllocCounts> alloc_counts();

} // namespace perfbench
