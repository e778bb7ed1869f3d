// lotus_serve: multi-stream serving front end.
//
// Two modes, both driven by the ExperimentHarness over serving scenarios:
//
//  * Scenario mode -- run named serving scenarios from the ScenarioRegistry
//    (the serve_* catalog half). Parallel runs are byte-identical to serial
//    runs for the same seed, so `--jobs` is purely a throughput knob.
//
//      lotus_serve --list-scenarios
//      lotus_serve --scenario serve_saturation --jobs 4
//      lotus_serve --scenario serve_light --format json
//
//  * Ad-hoc mode -- build one serving experiment from flags: N identical
//    streams (phase-staggered so they do not arrive in lockstep) of the
//    given dataset/arrival process, one governor, one scheduler. With
//    --devices N the streams are served by a FLEET of N copies of the
//    device preset behind the chosen --router (one governor instance per
//    device) instead of a single device.
//
//      lotus_serve --streams 8 --arrival burst --scheduler edf --governor lotus
//      lotus_serve --streams 4 --arrival poisson --rate 0.5 --slo 800 --csv out/
//      lotus_serve --streams 12 --rate 1.2 --devices 4 --router thermal_aware
//
// Flags (all optional):
//   --list-scenarios  enumerate serving + fleet scenarios and exit
//   --scenario NAME   run a registry serving/fleet scenario (repeatable)
//   --jobs N          worker threads for scenario mode  (default: all cores)
//   --devices N       fleet size. Ad-hoc mode: serve on N copies of the
//                     device preset. Scenario mode: resize a FLEET
//                     scenario's pool (cycling its defined devices);
//                     rejected for non-fleet scenarios.
//   --router R        round_robin | least_queue | thermal_aware | lotus_fleet
//                     Ad-hoc mode: requires --devices. Scenario mode:
//                     overrides a fleet scenario's default routing policy
//                     (arms that pin their own router -- the router
//                     shoot-out scenarios -- keep their pin).
//   --device     orin | mi11                            (default orin)
//   --detector   frcnn | mrcnn | yolo                   (default frcnn)
//   --dataset    kitti | visdrone                       (default kitti)
//   --governor   default | ztt | lotus | performance | powersave | random
//              | ondemand | conservative | fixed:<cpu>,<gpu>  (default lotus)
//   --scheduler  fifo | edf | edf_admit                 (default edf)
//   --arrival    periodic | poisson | burst | diurnal | attack (default poisson)
//   --streams N       number of client streams          (default 4)
//   --rate HZ         per-stream mean request rate      (default 0.25)
//   --slo MS          per-request deadline              (default 2x calibrated L)
//   --requests N      requests per stream               (default 150; 25 fast mode)
//   --burst N         requests per volley (burst/attack arrivals, default 8)
//   --pretrain N      unrecorded warm-up frames         (default 2500; agents only)
//   --seed S          experiment seed                   (default 42)
//   --format table | json                               (default table)
//   --csv DIR         write per-request ledgers + summary CSV into DIR
//   --chart           render temperature / end-to-end latency ASCII charts
//   --profile         print the internal profiler's per-scenario report to
//                     stderr (regions + counters; see src/prof/)
//   --telemetry DIR   record sim-time telemetry per episode and write it
//                     under DIR/<scenario>/<arm>/: trace.json (Perfetto /
//                     chrome://tracing), events.jsonl, metrics.csv,
//                     breaches.jsonl, manifest.json, rollup.json,
//                     health.json (see src/telemetry/)
//   --telemetry-ring N  breaches.jsonl flight-recorder depth: last-N events
//                     per process snapshotted into each breach report
//                     (default 32; requires --telemetry, N >= 1)
//   --record-trace DIR  dump every episode's request timeline as a compact
//                     binary trace: DIR/<scenario>/<NN>_<arm>.ltrc
//                     (inspect with lotus_trace info/cat)
//   --replay-trace DIR  replay episodes from traces recorded under DIR
//                     (same layout); outputs are byte-identical to the
//                     generating run
//
// Without --csv/--chart the serving/fleet episodes run summary-only: the
// per-request ledger is never materialised (tables and JSON are
// byte-identical either way).
//
// Unknown flags, unknown enum values, malformed numbers and contradictory
// invocations (scenario mode combined with ad-hoc stream flags, --router
// without a fleet) are rejected with a nonzero exit -- no silent fallbacks.

#include <cstdio>
#include <string>

#include "cli_common.hpp"

using namespace lotus;

namespace {

const std::string kTool = "lotus_serve";

/// Flags lotus_serve parses itself.
struct Options {
    std::string scheduler = "edf";
    /// Fleet knobs: valid in ad-hoc mode (build a fleet of N preset copies)
    /// and in scenario mode (override a fleet scenario's pool size/router).
    std::size_t devices = 0; // 0 = not passed
    std::string router;      // "" = not passed
    /// Trace capture/replay directories (see HarnessConfig::trace_dir /
    /// replay_dir); empty = off.
    std::string record_trace_dir;
    std::string replay_trace_dir;
};

int list_scenarios() {
    const auto& registry = harness::ScenarioRegistry::instance();
    const auto serving = registry.with_tag("serving");
    util::TextTable table({"scenario", "arms", "devices", "scheduler", "streams", "title"});
    for (const auto* s : serving) {
        const bool fleet = s->is_fleet();
        table.add_row({s->name, std::to_string(s->arms.size()),
                       fleet ? std::to_string(s->fleet->devices.size()) : "1",
                       fleet ? s->fleet->scheduler : s->serving->scheduler,
                       std::to_string(fleet ? s->fleet->streams.size()
                                            : s->serving->streams.size()),
                       s->title});
    }
    std::printf("%s", table.render("serving + fleet scenarios (" +
                                   std::to_string(serving.size()) + " of " +
                                   std::to_string(registry.all().size()) +
                                   " registry entries)")
                          .c_str());
    return 0;
}

int run_scenarios(const cli::Flags& f, const Options& opt) {
    cli::reject_inapplicable(
        kTool, f,
        {"--seed", "--jobs", "--format", "--csv", "--chart", "--profile", "--telemetry",
         "--telemetry-ring", "--scenario", "--devices", "--router",
         "--record-trace", "--replay-trace"},
        [](const std::string& flag) { return cli::fixed_by_registry(flag, "ad-hoc"); });
    cli::ScenarioMode mode;
    mode.classic_rejection = ", not a serving scenario (run it with lotus_run)";
    mode.trace_dir = opt.record_trace_dir;
    mode.replay_dir = opt.replay_trace_dir;
    // --devices/--router act as fleet overrides on a copy of the entry.
    mode.rewrite = [&opt](const harness::Scenario& s) -> std::unique_ptr<harness::Scenario> {
        if (opt.devices == 0 && opt.router.empty()) return nullptr;
        if (!s.is_fleet()) {
            cli::usage_error(kTool, "--devices/--router override a FLEET scenario's pool; '" +
                                        s.name + "' serves a single device");
        }
        auto copy = std::make_unique<harness::Scenario>(s);
        if (opt.devices > 0) fleet::resize_pool(*copy->fleet, opt.devices);
        if (!opt.router.empty()) copy->fleet->router = opt.router;
        return copy;
    };
    return cli::run_scenarios(kTool, f, mode);
}

int run_adhoc(const cli::Flags& f, const Options& opt) {
    if (opt.devices == 0 && !opt.router.empty()) {
        cli::usage_error(kTool, "--router picks the fleet routing policy and requires "
                                "--devices N (a single device has nothing to route)");
    }
    const auto w = cli::adhoc_workload(kTool, f);
    (void)cli::parse_scheduler(kTool, opt.scheduler);
    const bool fleet = opt.devices > 0;
    auto scenario = cli::adhoc_scenario(
        kTool, w, f, f.governor, fleet ? "cli_fleet" : "cli_serve",
        fleet ? "lotus_serve ad-hoc fleet experiment" : "lotus_serve ad-hoc serving experiment");
    auto streams = cli::staggered_streams(f.streams, w.dataset, w.slo_s, w.requests, w.arrival);
    if (fleet) {
        scenario.fleet = cli::fleet_config(w, f, opt.devices, opt.scheduler,
                                           opt.router.empty() ? "round_robin" : opt.router);
        scenario.fleet->streams = std::move(streams);
    } else {
        serving::ServingConfig cfg(w.spec);
        cfg.detector = w.kind;
        cfg.scheduler = opt.scheduler;
        cfg.pretrain_iterations = f.pretrain;
        cfg.pretrain_constraint_s = w.constraint_s;
        cfg.streams = std::move(streams);
        scenario.serving = std::move(cfg);
    }

    std::fprintf(stderr,
                 "%s: %s + %s + %s | %zu streams x %zu req @ %.2f Hz (%s), SLO %.0f ms, "
                 "scheduler %s, governor %s, seed %llu",
                 kTool.c_str(), w.spec.name.c_str(), detector::to_string(w.kind),
                 w.dataset.c_str(), f.streams, w.requests, f.rate_hz,
                 serving::to_string(w.arrival.kind), w.slo_s * 1e3, opt.scheduler.c_str(),
                 scenario.arms[0].name.c_str(), static_cast<unsigned long long>(f.seed));
    if (fleet) {
        std::fprintf(stderr, " | fleet of %zu, router %s", opt.devices,
                     scenario.fleet->router.c_str());
    }
    std::fprintf(stderr, "\n");

    auto cfg = cli::harness_config(f);
    cfg.trace_dir = opt.record_trace_dir;
    cfg.replay_dir = opt.replay_trace_dir;
    const std::vector<const harness::Scenario*> batch = {&scenario};
    cli::render_results(f, batch, harness::ExperimentHarness(cfg).run(batch));
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return cli::guarded_main(kTool, [&] {
        Options opt;
        const auto f = cli::parse_flags(
            kTool, argc, argv, 1,
            {"--device", "--detector", "--dataset", "--governor", "--pretrain", "--seed",
             "--jobs", "--format", "--csv", "--chart", "--profile", "--telemetry",
             "--telemetry-ring", "--scenario", "--list-scenarios", "--streams", "--rate",
             "--slo", "--requests", "--burst", "--arrival"},
            [&](cli::ArgCursor& a, const std::string& flag) {
                if (flag == "--scheduler") {
                    opt.scheduler = a.value();
                } else if (flag == "--devices") {
                    opt.devices = a.count();
                } else if (flag == "--router") {
                    opt.router = cli::parse_router(kTool, a.value());
                } else if (flag == "--record-trace") {
                    opt.record_trace_dir = a.dir();
                } else if (flag == "--replay-trace") {
                    opt.replay_trace_dir = a.dir();
                } else {
                    return false;
                }
                return true;
            });
        if (!opt.record_trace_dir.empty() && opt.record_trace_dir == opt.replay_trace_dir) {
            cli::usage_error(kTool, "--record-trace and --replay-trace must not point at "
                                    "the same directory (capture would overwrite the "
                                    "traces being replayed)");
        }
        if (f.list_scenarios) return list_scenarios();
        if (!f.scenarios.empty()) return run_scenarios(f, opt);
        return run_adhoc(f, opt);
    });
}
