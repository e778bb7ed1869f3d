#pragma once
// Thin front-end glue for the argument-free bench binaries.
//
// bench_paper prints every figure and table of the paper; the others measure
// the serving, fleet and overhead layers. All experiment driving lives in
// lotus::harness: a bench looks its scenarios up in the ScenarioRegistry,
// runs them on an ExperimentHarness (episodes execute in parallel;
// LOTUS_BENCH_JOBS overrides the pool size), and renders via the harness
// sinks. Optional raw-trace CSV dumps: set LOTUS_BENCH_CSV=1; files land in
// ./bench_out/.

#include <string>
#include <vector>

#include "lotus_repro.hpp"

namespace lotus::bench {

using harness::EpisodeResult;
using harness::Scenario;

/// The bench harness config: the default pool size unless LOTUS_BENCH_JOBS
/// overrides it. A value that is not a positive decimal integer prints one
/// line naming it and exits 2.
[[nodiscard]] harness::HarnessConfig harness_config();

/// The registry scenario with this name (throws if unknown).
[[nodiscard]] const Scenario& scenario(const std::string& name);

/// Run one scenario's full arm set on the shared bench harness.
[[nodiscard]] std::vector<EpisodeResult> run(const Scenario& s);

/// Dump raw traces to ./bench_out/<stem>_<arm>.csv when LOTUS_BENCH_CSV=1.
void maybe_dump_csv(const std::string& stem, const std::vector<EpisodeResult>& results);

} // namespace lotus::bench
