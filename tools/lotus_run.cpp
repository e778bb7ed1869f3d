// lotus_run: command-line experiment runner.
//
// Two modes, both driven by the ExperimentHarness:
//
//  * Scenario mode -- run named scenarios from the ScenarioRegistry, all
//    episodes scheduled concurrently on a fixed thread pool. Parallel runs
//    are byte-identical to serial runs for the same seed (per-episode seed
//    derivation), so `--jobs` is purely a throughput knob.
//
//      lotus_run --list-scenarios
//      lotus_run --scenario fig4_kitti --jobs 8
//      lotus_run --scenario table1_frcnn_kitti --scenario table1_mrcnn_kitti --chart
//      lotus_run --scenario fig4_kitti --format json
//
//  * Single-run mode -- one ad-hoc (device, detector, dataset, governor)
//    experiment, the "do one run" front end a downstream user reaches for
//    before scripting the bench harnesses.
//
//      lotus_run --device orin --detector frcnn --dataset kitti --governor lotus
//      lotus_run --governor fixed:7,5 --iterations 500 --chart
//      lotus_run --device mi11 --governor ztt --pretrain 2000 --csv out.csv
//
// Flags (all optional):
//   --list-scenarios enumerate the registry and exit
//   --scenario NAME  run a registry scenario (repeatable)
//   --jobs N         worker threads for scenario mode   (default: all cores)
//   --device     orin | mi11                        (default orin)
//   --detector   frcnn | mrcnn | yolo               (default frcnn)
//   --dataset    kitti | visdrone                   (default kitti)
//   --governor   default | ztt | lotus | performance | powersave | random
//              | ondemand | conservative | fixed:<cpu>,<gpu>   (default lotus)
//   --iterations N   measured frames                (default 3000 / 1000)
//   --pretrain   N   unrecorded training frames     (default 2500; agents only)
//   --seed       S   experiment seed                (default 42)
//   --constraint MS  latency constraint override in milliseconds
//   --format     table | json                       (default table; json emits
//                    one machine-readable document per scenario / run)
//   --csv PATH       single run: trace CSV path; scenario mode: output dir
//   --chart          render temperature/latency ASCII charts
//   --profile        print the internal profiler's report to stderr
//                    (per-scenario in scenario mode; see src/prof/)
//   --telemetry DIR  record sim-time telemetry per episode and write it
//                    under DIR/<scenario>/<arm>/: trace.json (Perfetto /
//                    chrome://tracing), events.jsonl, metrics.csv,
//                    breaches.jsonl, manifest.json, rollup.json,
//                    health.json (see src/telemetry/)
//   --telemetry-ring N  breaches.jsonl flight-recorder depth: last-N events
//                    per process snapshotted into each breach report
//                    (default 32; requires --telemetry, N >= 1)
//
// Unknown flags, unknown enum values and malformed numbers are rejected
// with a nonzero exit -- no silent fallbacks.

#include <cstdio>
#include <string>

#include "cli_common.hpp"

using namespace lotus;

namespace {

const std::string kTool = "lotus_run";

/// Single-run-only flags lotus_run parses itself.
struct Options {
    std::size_t iterations = 0; // 0 -> device default
    double constraint_ms = 0.0; // 0 -> preset
};

int list_scenarios() {
    const auto& registry = harness::ScenarioRegistry::instance();
    util::TextTable table({"scenario", "arms", "tags", "title"});
    for (const auto& s : registry.all()) {
        std::string tags;
        for (const auto& t : s.tags) tags += tags.empty() ? t : "," + t;
        table.add_row({s.name, std::to_string(s.arms.size()), tags, s.title});
    }
    std::printf("%s", table.render("scenario registry (" +
                                   std::to_string(registry.all().size()) + " scenarios)")
                          .c_str());
    return 0;
}

int run_single(const cli::Flags& f, const Options& opt) {
    const auto spec = cli::parse_device(kTool, f.device);
    const bool orin = spec.name.find("orin") != std::string::npos;
    const auto kind = cli::parse_detector(kTool, f.detector);
    const auto dataset = cli::parse_dataset(kTool, f.dataset);
    const std::size_t iterations =
        opt.iterations > 0 ? opt.iterations : (orin ? 3000 : 1000);

    harness::Scenario scenario(
        runtime::static_experiment(spec, kind, dataset, iterations, f.pretrain));
    scenario.name = "cli";
    scenario.title = "lotus_run single experiment";
    if (opt.constraint_ms > 0.0) {
        scenario.config.schedule =
            workload::DomainSchedule::constant(dataset, opt.constraint_ms / 1e3);
    }
    scenario.arms.push_back(cli::make_governor_arm(kTool, f.governor, spec));

    // Keep stdout clean for --format json; the banner is status, not data.
    const bool json = f.format == cli::OutputFormat::json;
    std::fprintf(json ? stderr : stdout,
                 "lotus_run: %s + %s + %s under %s (%zu iterations, seed %llu, "
                 "L=%.0f ms)\n",
                 spec.name.c_str(), detector::to_string(kind), dataset.c_str(),
                 scenario.arms[0].name.c_str(), iterations,
                 static_cast<unsigned long long>(f.seed),
                 scenario.config.schedule.at(0).latency_constraint_s * 1e3);

    auto cfg = cli::harness_config(f);
    cfg.jobs = 1;
    const auto results = harness::ExperimentHarness(cfg).run(scenario);
    const auto& trace = results[0].trace;

    if (json) {
        std::printf("%s\n", harness::scenario_json(scenario, results).c_str());
    } else {
        const auto s = trace.summary();
        util::TextTable table({"metric", "value"});
        table.add_row({"mean latency (ms)", util::format_double(s.mean_latency_s * 1e3, 1)});
        table.add_row({"latency std (ms)", util::format_double(s.std_latency_s * 1e3, 1)});
        table.add_row({"satisfaction rate R_L (%)",
                       util::format_double(s.satisfaction_rate * 100.0, 1)});
        table.add_row({"mean device temp (C)", util::format_double(s.mean_device_temp, 1)});
        table.add_row({"max device temp (C)", util::format_double(s.max_device_temp, 1)});
        table.add_row({"mean power (W)", util::format_double(s.mean_power_w, 1)});
        table.add_row({"throttled frames (%)",
                       util::format_double(s.throttled_fraction * 100.0, 1)});
        table.add_row({"mean proposals", util::format_double(s.mean_proposals, 1)});
        std::printf("%s", table.render("summary").c_str());
    }

    if (f.chart) {
        util::AsciiChart temp_chart(100, 12);
        temp_chart.add_series({"T_dev", util::downsample(trace.device_temps(), 100)});
        temp_chart.add_reference_line(platform::throttle_bound_celsius(spec), "trip");
        std::printf("%s\n", temp_chart.render("device temperature", "C").c_str());
        util::AsciiChart lat_chart(100, 12);
        lat_chart.add_series({"latency", util::downsample(trace.latencies_ms(), 100)});
        lat_chart.add_reference_line(
            scenario.config.schedule.at(0).latency_constraint_s * 1e3, "L");
        std::printf("%s\n", lat_chart.render("latency", "ms").c_str());
    }
    if (!f.csv.empty()) {
        trace.write_csv(f.csv);
        // Status line: keep stdout machine-readable under --format json.
        std::fprintf(json ? stderr : stdout, "trace written to %s (%zu rows)\n",
                     f.csv.c_str(), trace.size());
    }
    for (const auto& sink : cli::telemetry_and_profile_sinks(f)) {
        sink->consume(scenario, results);
    }
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
             "--telemetry-ring", "--scenario", "--list-scenarios"},
            [&](cli::ArgCursor& a, const std::string& flag) {
                if (flag == "--iterations") {
                    opt.iterations = static_cast<std::size_t>(a.u64());
                    if (opt.iterations == 0) cli::usage_error(kTool, "--iterations must be > 0");
                } else if (flag == "--constraint") {
                    opt.constraint_ms = a.positive();
                } else {
                    return false;
                }
                return true;
            });
        if (f.list_scenarios) return list_scenarios();
        if (f.scenarios.empty()) return run_single(f, opt);
        cli::reject_inapplicable(
            kTool, f,
            {"--seed", "--jobs", "--format", "--csv", "--chart", "--profile", "--telemetry",
             "--telemetry-ring", "--scenario"},
            [](const std::string& flag) { return cli::fixed_by_registry(flag, "single-run"); });
        return cli::run_scenarios(kTool, f, {});
    });
}
