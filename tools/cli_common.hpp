#pragma once
// Shared front end of the simulator CLIs (lotus_run, lotus_serve,
// lotus_sweep, lotus_trace).
//
// The tools speak one dialect, so it lives here once:
//  * one argv walker (parse_flags) over one shared flag vocabulary (Flags),
//    with strict validation -- unknown flags, enum values and malformed
//    numbers exit 2, no silent fallbacks;
//  * one "this flag does not apply here" check (reject_inapplicable); each
//    tool supplies the list of flags each of its modes reads;
//  * one registry scenario mode (run_scenarios) and its result sinks;
//  * one ad-hoc workload builder (adhoc_workload, staggered_streams,
//    fleet_config, adhoc_scenario).
// Each tool parses only its own flags and keeps only its own modes.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lotus_repro.hpp"
#include "prof/profiler.hpp"

namespace lotus::cli {

[[noreturn]] inline void usage_error(const std::string& tool, const std::string& message) {
    std::fprintf(stderr, "%s: %s\n(see the header of tools/%s.cpp for usage)\n",
                 tool.c_str(), message.c_str(), tool.c_str());
    std::exit(2);
}

/// Run a tool's main body; an escaped std::exception (a missing replay
/// file, an unwritable output directory) prints `tool: message` and exits
/// 1 instead of aborting through std::terminate.
template <class Body>
int guarded_main(const std::string& tool, Body body) {
    try {
        return body();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", tool.c_str(), e.what());
        return 1;
    }
}

// --- value parsers -----------------------------------------------------------

inline std::uint64_t parse_u64(const std::string& tool, const std::string& flag,
                               const std::string& value) {
    std::uint64_t out = 0;
    const auto* first = value.data();
    const auto* last = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (value.empty() || ec != std::errc{} || ptr != last) {
        usage_error(tool, flag + " wants a non-negative integer, got '" + value + "'");
    }
    return out;
}

inline double parse_positive_double(const std::string& tool, const std::string& flag,
                                    const std::string& value) {
    char* end = nullptr;
    const double out = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() || !(out > 0.0)) {
        usage_error(tool, flag + " wants a positive number, got '" + value + "'");
    }
    return out;
}

inline platform::DeviceSpec parse_device(const std::string& tool, const std::string& s) {
    if (s == "orin" || s == "jetson") return platform::orin_nano_spec();
    if (s == "mi11" || s == "mi-11-lite") return platform::mi11_lite_spec();
    usage_error(tool, "unknown device " + s);
}

inline detector::DetectorKind parse_detector(const std::string& tool, const std::string& s) {
    if (s == "frcnn" || s == "faster_rcnn") return detector::DetectorKind::faster_rcnn;
    if (s == "mrcnn" || s == "mask_rcnn") return detector::DetectorKind::mask_rcnn;
    if (s == "yolo" || s == "yolov5") return detector::DetectorKind::yolo_v5;
    usage_error(tool, "unknown detector " + s);
}

/// Canonical dataset name ("KITTI" / "VisDrone2019").
inline std::string parse_dataset(const std::string& tool, const std::string& s) {
    if (s == "kitti" || s == "KITTI") return "KITTI";
    if (s == "visdrone" || s == "VisDrone2019") return "VisDrone2019";
    usage_error(tool, "unknown dataset " + s);
}

/// Validated fleet routing-policy name (round_robin | least_queue |
/// thermal_aware | lotus_fleet, plus the rr/jsq shorthands).
inline std::string parse_router(const std::string& tool, const std::string& s) {
    try {
        (void)fleet::make_router(s);
    } catch (const std::invalid_argument& e) {
        usage_error(tool, e.what());
    }
    return s;
}

/// Validated queue-policy name (fifo | edf | edf_admit).
inline std::string parse_scheduler(const std::string& tool, const std::string& s) {
    try {
        (void)serving::make_scheduler(s);
    } catch (const std::invalid_argument& e) {
        usage_error(tool, e.what());
    }
    return s;
}

/// Output format for result rendering.
enum class OutputFormat { table, json };

inline OutputFormat parse_format(const std::string& tool, const std::string& s) {
    if (s == "table") return OutputFormat::table;
    if (s == "json") return OutputFormat::json;
    usage_error(tool, "unknown --format " + s + " (table|json)");
}

// --- one argv walker ---------------------------------------------------------

using FlagList = std::vector<std::string_view>;

inline bool listed(const FlagList& flags, std::string_view flag) {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
}

/// The flag vocabulary the tools share. Each tool accepts the subset it
/// passes to parse_flags; the defaults are the tools' common defaults.
struct Flags {
    std::string device = "orin";
    std::string detector = "frcnn";
    std::string dataset = "kitti";
    std::string governor = "lotus";
    std::size_t pretrain = 2500;
    std::uint64_t seed = 42;
    std::size_t jobs = 0; // 0 -> hardware concurrency
    OutputFormat format = OutputFormat::table;
    /// CSV output: a file in lotus_run's single-run mode, else a directory.
    std::string csv;
    bool chart = false;
    /// Enable the internal profiler and print its per-scenario report to
    /// stderr (see src/prof/).
    bool profile = false;
    /// Sim-time telemetry output directory (see src/telemetry/); empty
    /// disables recording entirely.
    std::string telemetry_dir;
    /// breaches.jsonl flight-recorder depth; 0 keeps the RecorderOptions
    /// default.
    std::size_t telemetry_ring = 0;
    std::vector<std::string> scenarios;
    bool list_scenarios = false;
    // Stream flags: the identical client streams of an ad-hoc workload.
    std::size_t streams = 4;
    double rate_hz = 0.25;
    double slo_ms = 0.0;      // 0 -> the tool's default
    std::size_t requests = 0; // 0 -> the tool's default
    std::size_t burst = 8;
    std::string arrival = "poisson";
    /// Every flag on the command line, in order, the tool's own included:
    /// what reject_inapplicable checks against a mode's list.
    std::vector<std::string> given;

    /// Serving/fleet episodes can skip materialising per-request ledger rows
    /// (bit-identical summaries, less allocation) exactly when no sink needs
    /// the rows: charts read per-request columns, CSV dumps the ledger.
    [[nodiscard]] bool summary_only() const noexcept { return !chart && csv.empty(); }
};

/// Cursor over argv; a tool's own-flag parser reads values through it.
class ArgCursor {
public:
    ArgCursor(std::string tool, int argc, char** argv, int first)
        : tool_(std::move(tool)), argc_(argc), argv_(argv), i_(first - 1) {}

    bool next() { return ++i_ < argc_; }
    [[nodiscard]] std::string arg() const { return argv_[i_]; }

    /// The current flag's value: the next argument.
    std::string value() {
        if (i_ + 1 >= argc_) usage_error(tool_, "missing value for " + arg());
        return argv_[++i_];
    }
    std::uint64_t u64() {
        const auto flag = arg();
        return parse_u64(tool_, flag, value());
    }
    /// A count that must be at least 1.
    std::size_t count() {
        const auto flag = arg();
        const auto n = static_cast<std::size_t>(u64());
        if (n == 0) usage_error(tool_, flag + " must be >= 1");
        return n;
    }
    double positive() {
        const auto flag = arg();
        return parse_positive_double(tool_, flag, value());
    }
    /// A non-empty output or input directory.
    std::string dir() {
        const auto flag = arg();
        auto out = value();
        if (out.empty()) usage_error(tool_, flag + " wants a directory");
        return out;
    }

private:
    std::string tool_;
    int argc_;
    char** argv_;
    int i_;
};

/// Walk argv from `first`. `own(args, arg)` sees every argument first and
/// returns true when it consumed one of the tool's own flags (or a
/// positional); any other argument must be one of the `shared` flags the
/// tool accepts, or it exits 2 as an unknown flag. `--help` points at the
/// tool's header comment and exits 0.
template <class Own>
Flags parse_flags(const std::string& tool, int argc, char** argv, int first,
                  const FlagList& shared, Own own) {
    Flags f;
    ArgCursor a(tool, argc, argv, first);
    while (a.next()) {
        const std::string flag = a.arg();
        if (flag == "--help" || flag == "-h") {
            std::printf("see the header comment of tools/%s.cpp for usage\n", tool.c_str());
            std::exit(0);
        }
        if (!flag.empty() && flag[0] == '-') f.given.push_back(flag);
        if (own(a, flag)) continue;
        if (!listed(shared, flag)) usage_error(tool, "unknown flag " + flag);
        if (flag == "--device") {
            f.device = a.value();
        } else if (flag == "--detector") {
            f.detector = a.value();
        } else if (flag == "--dataset") {
            f.dataset = a.value();
        } else if (flag == "--governor") {
            f.governor = a.value();
        } else if (flag == "--pretrain") {
            f.pretrain = static_cast<std::size_t>(a.u64());
        } else if (flag == "--seed") {
            if (std::count(f.given.begin(), f.given.end(), flag) > 1) {
                usage_error(tool, "--seed given more than once");
            }
            f.seed = a.u64();
        } else if (flag == "--jobs") {
            f.jobs = a.count();
        } else if (flag == "--format") {
            f.format = parse_format(tool, a.value());
        } else if (flag == "--csv") {
            f.csv = a.value();
        } else if (flag == "--chart") {
            f.chart = true;
        } else if (flag == "--profile") {
            f.profile = true;
        } else if (flag == "--telemetry") {
            f.telemetry_dir = a.dir();
        } else if (flag == "--telemetry-ring") {
            f.telemetry_ring = a.count();
        } else if (flag == "--scenario") {
            f.scenarios.push_back(a.value());
        } else if (flag == "--list-scenarios") {
            f.list_scenarios = true;
        } else if (flag == "--streams") {
            f.streams = a.count();
        } else if (flag == "--rate") {
            f.rate_hz = a.positive();
        } else if (flag == "--slo") {
            f.slo_ms = a.positive();
        } else if (flag == "--requests") {
            f.requests = a.count();
        } else if (flag == "--burst") {
            f.burst = a.count();
        } else if (flag == "--arrival") {
            f.arrival = a.value();
        } else {
            usage_error(tool, "unknown flag " + flag);
        }
    }
    if (f.telemetry_ring > 0 && f.telemetry_dir.empty()) {
        usage_error(tool, "--telemetry-ring requires --telemetry");
    }
    // --format json promises machine-readable stdout; ASCII charts would
    // corrupt it (CSV announcements already go to stderr).
    if (f.chart && f.format == OutputFormat::json) {
        usage_error(tool, "--chart writes ASCII to stdout and cannot be combined "
                          "with --format json");
    }
    return f;
}

/// The one "this flag does not apply here" rule: the first flag on the
/// command line that the current mode does not read (not in `applies`)
/// exits 2 with `why(flag)` instead of being silently ignored.
template <class Why>
void reject_inapplicable(const std::string& tool, const Flags& f, const FlagList& applies,
                         Why why) {
    for (const auto& flag : f.given) {
        if (!listed(applies, flag)) usage_error(tool, why(flag));
    }
}

// --- results -----------------------------------------------------------------

/// Harness config for these flags: the summary-only fast path engages when
/// no row-consuming sink is attached. Also turns the profiler's timer gate
/// on for --profile (before the run, so episodes are sampled; a no-op in
/// profiling-OFF builds, where the ProfileSink prints a notice).
inline harness::HarnessConfig harness_config(const Flags& f) {
    if (f.profile) prof::set_enabled(true);
    harness::HarnessConfig cfg;
    cfg.jobs = f.jobs;
    cfg.seed = f.seed;
    cfg.summary_only = f.summary_only();
    cfg.telemetry = !f.telemetry_dir.empty();
    if (f.telemetry_ring > 0) cfg.telemetry_options.ring_capacity = f.telemetry_ring;
    return cfg;
}

/// The sinks every run mode attaches after its own report: the telemetry
/// directory and the profiler report.
inline std::vector<std::unique_ptr<harness::ResultSink>> telemetry_and_profile_sinks(
    const Flags& f) {
    std::vector<std::unique_ptr<harness::ResultSink>> sinks;
    if (!f.telemetry_dir.empty()) {
        sinks.push_back(std::make_unique<harness::TelemetrySink>(f.telemetry_dir));
    }
    if (f.profile) sinks.push_back(std::make_unique<harness::ProfileSink>());
    return sinks;
}

/// Feed each scenario's results through the sinks the flags select:
/// chart, table or JSON, CSV directory, then the telemetry and profile
/// sinks.
inline void render_results(const Flags& f, const std::vector<const harness::Scenario*>& batch,
                           const std::vector<std::vector<harness::EpisodeResult>>& results) {
    std::vector<std::unique_ptr<harness::ResultSink>> sinks;
    if (f.chart) sinks.push_back(std::make_unique<harness::AsciiFigureSink>());
    if (f.format == OutputFormat::json) {
        sinks.push_back(std::make_unique<harness::JsonSink>());
    } else {
        sinks.push_back(std::make_unique<harness::SummaryTableSink>());
    }
    if (!f.csv.empty()) sinks.push_back(std::make_unique<harness::CsvSink>(f.csv));
    for (auto& sink : telemetry_and_profile_sinks(f)) sinks.push_back(std::move(sink));

    for (std::size_t i = 0; i < batch.size(); ++i) {
        for (const auto& sink : sinks) sink->consume(*batch[i], results[i]);
        if (f.format == OutputFormat::table) std::printf("\n");
    }
}

// --- one registry scenario mode ----------------------------------------------

/// How a tool runs named registry scenarios.
struct ScenarioMode {
    /// Non-empty: only serving/fleet scenarios run; a classic one exits 2
    /// with "scenario 'X' is a classic experiment" followed by this.
    std::string classic_rejection;
    /// Follows "unknown scenario 'X'" on stderr.
    std::string unknown_hint = " (try --list-scenarios)";
    /// Optional per-scenario rewrite (lotus_serve's --devices/--router
    /// override); returning nullptr keeps the registry entry.
    std::function<std::unique_ptr<harness::Scenario>(const harness::Scenario&)> rewrite;
    /// Capture / replay directories (HarnessConfig::trace_dir / replay_dir).
    std::string trace_dir;
    std::string replay_dir;
    /// Replaces the status line and the result sinks (lotus_trace record
    /// lists the traces it wrote instead).
    std::function<void(const std::vector<const harness::Scenario*>&)> report;
};

/// Look up `f.scenarios` (exit 2 on an unknown or filtered-out name), run
/// them on the parallel harness and render the results.
inline int run_scenarios(const std::string& tool, const Flags& f, const ScenarioMode& mode) {
    const auto& registry = harness::ScenarioRegistry::instance();
    // Rewritten copies live here; the batch points at either the registry
    // entry or its rewrite.
    std::vector<std::unique_ptr<harness::Scenario>> rewritten;
    std::vector<const harness::Scenario*> batch;
    for (const auto& name : f.scenarios) {
        const auto* s = registry.find(name);
        if (s == nullptr) {
            std::fprintf(stderr, "%s: unknown scenario '%s'%s\n", tool.c_str(), name.c_str(),
                         mode.unknown_hint.c_str());
            return 2;
        }
        if (!mode.classic_rejection.empty() && !s->is_serving() && !s->is_fleet()) {
            std::fprintf(stderr, "%s: scenario '%s' is a classic experiment%s\n", tool.c_str(),
                         name.c_str(), mode.classic_rejection.c_str());
            return 2;
        }
        auto copy = mode.rewrite ? mode.rewrite(*s) : nullptr;
        batch.push_back(copy ? copy.get() : s);
        if (copy) rewritten.push_back(std::move(copy));
    }

    auto cfg = harness_config(f);
    cfg.trace_dir = mode.trace_dir;
    cfg.replay_dir = mode.replay_dir;
    const harness::ExperimentHarness harness(cfg);
    if (mode.report) {
        (void)harness.run(batch);
        mode.report(batch);
        return 0;
    }
    // Status goes to stderr so stdout is byte-identical at any --jobs count.
    std::fprintf(stderr, "%s: %zu scenario(s), %zu jobs, seed %llu\n", tool.c_str(),
                 batch.size(), harness.config().jobs,
                 static_cast<unsigned long long>(harness.config().seed));
    render_results(f, batch, harness.run(batch));
    return 0;
}

/// Why lotus_run's and lotus_serve's registry scenario mode rejects a flag
/// that only shapes their ad-hoc experiment.
inline std::string fixed_by_registry(const std::string& flag, const std::string& adhoc_mode) {
    return flag + " only applies to " + adhoc_mode +
           " mode; scenario definitions are fixed by the registry (tune "
           "--seed/--jobs/--format/--chart/--csv instead)";
}

// --- one ad-hoc workload builder ---------------------------------------------

/// The full governor vocabulary the tools accept:
///   default | ztt | lotus | performance | powersave | random | ondemand
/// | conservative | fixed:<cpu>,<gpu>
inline harness::ArmSpec make_governor_arm(const std::string& tool, const std::string& g,
                                          const platform::DeviceSpec& spec) {
    if (g == "default") return harness::default_arm(spec);
    if (g == "ztt") return harness::ztt_arm(spec);
    if (g == "lotus") return harness::lotus_arm(spec);
    if (g == "performance") return harness::performance_arm();
    if (g == "powersave") return harness::powersave_arm();

    const auto simple = [&g](auto factory) {
        harness::ArmSpec arm;
        arm.name = g;
        arm.make = std::move(factory);
        return arm;
    };
    if (g == "ondemand" || g == "conservative") {
        return simple([g](std::uint64_t) -> std::unique_ptr<governors::Governor> {
            return std::make_unique<governors::KernelGovernor>(
                g + "+simple_ondemand",
                g == "ondemand" ? governors::CpuPolicyKind::ondemand
                                : governors::CpuPolicyKind::conservative,
                governors::SimpleOndemandParams{});
        });
    }
    if (g == "random") {
        return simple([](std::uint64_t seed) -> std::unique_ptr<governors::Governor> {
            return std::make_unique<governors::RandomGovernor>(seed);
        });
    }
    if (g.rfind("fixed:", 0) == 0) {
        const auto spec_str = g.substr(6);
        const auto comma = spec_str.find(',');
        if (comma == std::string::npos) {
            usage_error(tool, "malformed --governor '" + g + "': fixed wants fixed:<cpu>,<gpu>");
        }
        const auto cpu = static_cast<std::size_t>(
            parse_u64(tool, "--governor fixed:<cpu>", spec_str.substr(0, comma)));
        const auto gpu = static_cast<std::size_t>(
            parse_u64(tool, "--governor fixed:<gpu>", spec_str.substr(comma + 1)));
        if (cpu >= spec.cpu.opp.num_levels() || gpu >= spec.gpu.opp.num_levels()) {
            usage_error(tool, "fixed:" + std::to_string(cpu) + "," + std::to_string(gpu) +
                                  " is outside the device's ladder (" +
                                  std::to_string(spec.cpu.opp.num_levels()) + " CPU x " +
                                  std::to_string(spec.gpu.opp.num_levels()) + " GPU levels)");
        }
        return harness::fixed_arm(cpu, gpu);
    }
    usage_error(tool, "unknown governor " + g);
}

/// The arrival process the stream flags describe.
inline serving::ArrivalSpec parse_arrival(const std::string& tool, const Flags& f) {
    serving::ArrivalSpec arrival;
    try {
        arrival.kind = serving::arrival_kind_from(f.arrival);
    } catch (const std::invalid_argument& e) {
        usage_error(tool, e.what());
    }
    arrival.rate_hz = f.rate_hz;
    arrival.burst = f.burst;
    return arrival;
}

/// `n` identical streams with phases staggered across one mean
/// inter-arrival, so they do not fire in lockstep.
inline std::vector<serving::StreamSpec> staggered_streams(std::size_t n,
                                                          const std::string& dataset,
                                                          double slo_s, std::size_t requests,
                                                          const serving::ArrivalSpec& arrival) {
    std::vector<serving::StreamSpec> streams;
    for (std::size_t i = 0; i < n; ++i) {
        serving::StreamSpec stream;
        stream.name = "stream" + std::to_string(i);
        stream.dataset = dataset;
        stream.slo_s = slo_s;
        stream.requests = requests;
        stream.arrival = arrival;
        stream.arrival.phase_s =
            static_cast<double>(i) / (arrival.rate_hz * static_cast<double>(n));
        streams.push_back(std::move(stream));
    }
    return streams;
}

/// The ad-hoc serving workload lotus_serve and every lotus_sweep cell
/// build from the shared flags.
struct Workload {
    platform::DeviceSpec spec;
    detector::DetectorKind kind;
    std::string dataset;
    /// The calibrated latency constraint L (also the pretrain constraint).
    double constraint_s;
    /// Per-request deadline: --slo, default 2 x L.
    double slo_s;
    /// Requests per stream: --requests, default 150 (25 in fast mode).
    std::size_t requests;
    serving::ArrivalSpec arrival;
};

inline Workload adhoc_workload(const std::string& tool, const Flags& f) {
    auto spec = parse_device(tool, f.device);
    const auto kind = parse_detector(tool, f.detector);
    auto dataset = parse_dataset(tool, f.dataset);
    auto arrival = parse_arrival(tool, f);
    const double constraint = workload::latency_constraint_s(spec.name, kind, dataset);
    return Workload{std::move(spec),
                    kind,
                    std::move(dataset),
                    constraint,
                    f.slo_ms > 0.0 ? f.slo_ms / 1e3 : 2.0 * constraint,
                    f.requests > 0 ? f.requests : (harness::fast_mode() ? 25 : 150),
                    arrival};
}

/// A fleet of `devices` copies of the workload's device preset, named
/// <--device><index>; the caller adds the streams.
inline fleet::FleetConfig fleet_config(const Workload& w, const Flags& f, std::size_t devices,
                                       const std::string& scheduler,
                                       const std::string& router) {
    fleet::FleetConfig cfg;
    for (std::size_t d = 0; d < devices; ++d) {
        cfg.devices.push_back(fleet::make_device(f.device + std::to_string(d), w.spec));
    }
    cfg.detector = w.kind;
    cfg.scheduler = scheduler;
    cfg.router = router;
    cfg.pretrain_iterations = f.pretrain;
    cfg.pretrain_constraint_s = w.constraint_s;
    return cfg;
}

/// A one-arm scenario shell for the workload under `governor`; the caller
/// sets its serving or fleet config.
inline harness::Scenario adhoc_scenario(const std::string& tool, const Workload& w,
                                        const Flags& f, const std::string& governor,
                                        std::string name, std::string title) {
    harness::Scenario scenario(runtime::static_experiment(w.spec, w.kind, w.dataset, 1, 0, f.seed));
    scenario.name = std::move(name);
    scenario.title = std::move(title);
    scenario.arms.push_back(make_governor_arm(tool, governor, w.spec));
    return scenario;
}

} // namespace lotus::cli
