// perfbench: runs one workload for a wall-clock budget and prints
// its metrics. Built twice from these sources: `perfbench` (untraced,
// end-to-end metrics) and `perfbench_traced` (counting allocator linked in,
// per-layer metrics). perfbench/run.py builds both and calls one of them.
//
//   perfbench --workload NAME --seed N --seconds S --out DIR [--trace]
//
// stdout: one "name value unit" line per metric, a "stamp" line, and last a
// single JSON object {"correct","attempted","failed","digest","metrics",
// "problems","stamp"} that run.py reads. DIR receives the workload's
// outputs; run.py validates and deletes it.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "harness/sinks.hpp"
#include "prof/profiler.hpp"
#include "telemetry/recorder.hpp"
#include "util/build_info.hpp"
#include "util/stats.hpp"

namespace fs = std::filesystem;
namespace h = lotus::harness;
namespace prof = lotus::prof;
using lotus::telemetry::jstr;

namespace perfbench {
namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    std::string out;
    bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--out DIR [--trace]\n",
                 why.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(flag + " wants a value");
            return argv[++i];
        };
        try {
            if (flag == "--workload") {
                o.workload = value();
            } else if (flag == "--seed") {
                o.seed = std::stoull(value());
                have_seed = true;
            } else if (flag == "--seconds") {
                o.seconds = std::stod(value());
            } else if (flag == "--out") {
                o.out = value();
            } else if (flag == "--trace") {
                o.trace = true;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("malformed value for " + flag);
        }
    }
    if (!find_workload(o.workload)) usage("unknown workload '" + o.workload + "'");
    if (!have_seed) usage("--seed is required");
    if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
    if (o.out.empty()) usage("--out is required");
    return o;
}

double median(std::vector<double> v) { return lotus::util::percentile(std::move(v), 50.0); }

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::uint64_t dir_bytes(const fs::path& dir) {
    std::uint64_t total = 0;
    if (!fs::exists(dir)) return 0;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file()) total += e.file_size();
    }
    return total;
}

/// VmHWM of this process image. getrusage's ru_maxrss would not do: it
/// carries over the peak of the process that exec'ed us (run.py's Python).
double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// One execution of the workload: episodes, JSON render, writes.
struct Pass {
    double wall_s = 0.0;
    double harness_s = 0.0;
    double render_s = 0.0;
    double write_s = 0.0;
    std::uint64_t digest = 0;
    std::uint64_t bytes = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    std::vector<h::EpisodeResult> results;
};

Pass run_pass(const h::Scenario& scenario, const h::HarnessConfig& cfg, const fs::path& out) {
    Pass p;
    p.attempted = scenario.arms.size();
    fs::remove_all(out);
    fs::create_directories(out);
    try {
        const h::ExperimentHarness harness(cfg);
        const auto t0 = Clock::now();
        p.results = harness.run(scenario);
        const auto t1 = Clock::now();
        const std::string doc = h::scenario_json(scenario, p.results);
        const auto t2 = Clock::now();
        {
            std::ofstream f(out / (h::artifact_name(scenario.name) + ".json"), std::ios::binary);
            f << doc << "\n";
            if (!f) throw std::runtime_error("cannot write the scenario document");
        }
        const auto t3 = Clock::now();
        if (cfg.telemetry) {
            h::TelemetrySink((out / "telemetry").string(), /*announce=*/false)
                .consume(scenario, p.results);
        }
        const auto t4 = Clock::now();
        p.harness_s = seconds_between(t0, t1);
        p.render_s = seconds_between(t1, t2);
        p.write_s = seconds_between(t3, t4);
        p.wall_s = seconds_between(t0, t4);
        p.digest = fnv1a(doc);
    } catch (const std::exception& e) {
        p.failed = p.attempted;
        p.problems.push_back(scenario.name + ": " + e.what());
        return p;
    }
    p.bytes = dir_bytes(out);

    auto problems = check_episodes(scenario, p.results);
    if (cfg.telemetry) {
        const auto base = out / "telemetry" / h::artifact_name(scenario.name);
        for (const auto& r : p.results) {
            const auto dir = base / h::artifact_name(r.arm);
            std::size_t files = 0;
            if (fs::is_directory(dir)) {
                for (const auto& e : fs::directory_iterator(dir)) files += e.is_regular_file();
            }
            const auto& want = telemetry_artifacts();
            if (files != want.size() || !std::all_of(want.begin(), want.end(), [&](const auto& a) {
                    return fs::is_regular_file(dir / a);
                })) {
                problems.push_back(dir.string() + ": artifact set differs from the seven files");
            }
        }
    }
    p.failed = std::min(p.attempted, problems.size());
    p.problems = std::move(problems);
    return p;
}

/// Moves the measuring thread round the CPUs it may use, one step every
/// 50 ms, for the object's lifetime. On a shared host the CPUs of one
/// machine can differ in speed by 2x (neighbours on the same physical core),
/// and the scheduler leaves a busy thread where it is, so without rotation a
/// run's time would depend on which CPU it happened to start on.
class CpuRotation {
public:
    CpuRotation() : target_(pthread_self()) {
        if (pthread_getaffinity_np(target_, sizeof original_, &original_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
        }
        if (cpus_.size() > 1) thread_ = std::thread([this] { rotate(); });
    }
    ~CpuRotation() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_one();
        if (thread_.joinable()) {
            thread_.join();
            pthread_setaffinity_np(target_, sizeof original_, &original_);
        }
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

private:
    void rotate() {
        std::unique_lock<std::mutex> lock(mutex_);
        for (std::size_t i = 0;
             !wake_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; });
             ++i) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[i % cpus_.size()], &one);
            pthread_setaffinity_np(target_, sizeof one, &one);
        }
    }

    pthread_t target_;
    cpu_set_t original_{};
    std::vector<int> cpus_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_; // last: starts using the members above
};

/// Passes repeat while one more is expected to end closer to the budget
/// than stopping now: the run lasts `seconds` give or take half a pass.
bool another_pass(Clock::time_point start, double seconds, std::size_t passes_done) {
    const double elapsed = seconds_between(start, Clock::now());
    const double per_pass = elapsed / static_cast<double>(passes_done);
    return elapsed + 0.5 * per_pass < seconds;
}

/// Accumulates passes and the verdict of the run.
struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    std::optional<std::uint64_t> digest;

    void add(Pass& p) {
        attempted += p.attempted;
        std::size_t bad = p.failed;
        if (bad == 0) {
            if (!digest) {
                digest = p.digest;
            } else if (*digest != p.digest) {
                p.problems.push_back("scenario_json digest differs between passes");
                bad = p.attempted;
            }
        }
        failed += bad;
        for (auto& s : p.problems) problems.push_back(std::move(s));
    }
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void emit(const Options& o, const Tally& t, const std::vector<Metric>& metrics) {
    std::string stamp = "{\"schema_version\":" + std::to_string(lotus::util::kSchemaVersion);
    stamp += ",\"build\":" + jstr(lotus::util::build_id());
#if defined(__clang__)
    stamp += ",\"compiler\":" + jstr(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    stamp += ",\"compiler\":" + jstr(std::string("gcc ") + __VERSION__);
#else
    stamp += ",\"compiler\":\"unknown\"";
#endif
    stamp += ",\"build_type\":" + jstr(PERFBENCH_BUILD_TYPE);
    stamp += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
    stamp += std::string(",\"prof_compiled\":") + (prof::kCompiled ? "true" : "false");
    stamp += ",\"workload\":" + jstr(o.workload) + ",\"seed\":" + std::to_string(o.seed);
    stamp += std::string(",\"traced\":") + (o.trace ? "true" : "false") + "}";

    for (const auto& m : metrics) {
        std::printf("%-32s %20.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const auto& s : t.problems) std::printf("problem: %s\n", s.c_str());
    std::printf("stamp %s\n", stamp.c_str());

    std::string o_json = "{\"correct\":";
    o_json += t.failed == 0 && t.attempted > 0 ? "true" : "false";
    o_json += ",\"attempted\":" + std::to_string(t.attempted);
    o_json += ",\"failed\":" + std::to_string(t.failed);
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(t.digest.value_or(0)));
    o_json += ",\"digest\":" + jstr(hex);
    o_json += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i) o_json += ",";
        o_json += jstr(metrics[i].name) + ":{\"value\":" + num(metrics[i].value) +
                  ",\"unit\":" + jstr(metrics[i].unit) + "}";
    }
    o_json += "},\"problems\":[";
    for (std::size_t i = 0; i < t.problems.size(); ++i) {
        if (i) o_json += ",";
        o_json += jstr(t.problems[i]);
    }
    o_json += "],\"stamp\":" + stamp + "}";
    std::printf("%s\n", o_json.c_str());
    std::fflush(stdout);
}

// --- untraced run: end-to-end metrics ---------------------------------------

int run_untraced(const Options& o, const Workload& w) {
    // Set-up is cheap next to a pass, so it is repeated and its median
    // reported; the last repetition's scenario is the one measured. The
    // untimed pauses spread the repetitions over every CPU of the rotation.
    constexpr int kSetupReps = 101;
    std::vector<double> setups;
    std::optional<h::Scenario> scenario;
    for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        scenario.emplace(resolve_scenario(w));
        setups.push_back(seconds_between(t0, Clock::now()));
        std::this_thread::sleep_for(std::chrono::milliseconds(7));
    }
    const auto cfg = harness_config(w, o.seed);

    Tally tally;
    std::vector<double> walls;
    std::optional<SimMetrics> sim;
    std::uint64_t bytes = 0;
    double rss_mib = 0.0;
    std::size_t passes = 0;
    const auto start = Clock::now();
    do {
        Pass p = run_pass(*scenario, cfg, o.out);
        if (p.failed == 0) {
            walls.push_back(p.wall_s);
            if (!sim) {
                sim = sim_metrics(w, p.results);
                bytes = p.bytes;
                // Taken after the first pass, so the figure does not depend
                // on how many passes fit in the run.
                rss_mib = peak_rss_mib();
            } else if (p.bytes != bytes) {
                p.problems.push_back("bytes written differ between passes");
                p.failed = p.attempted;
            }
        }
        tally.add(p);
    } while (another_pass(start, o.seconds, ++passes));

    std::vector<Metric> metrics;
    if (sim && !walls.empty()) {
        const double wall = median(walls);
        metrics = {
            {"wall_s", wall, "s"},
            {"sim_frames_per_s", static_cast<double>(sim->frames) / wall, "frames/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", rss_mib, "MiB"},
            {"output_mb", static_cast<double>(bytes) / (1024.0 * 1024.0), "MiB"},
            {"failed_frac",
             static_cast<double>(tally.failed) / static_cast<double>(tally.attempted), "frac"},
            {"sim_latency_p50_ms", sim->p50_ms, "ms"},
            {"sim_latency_p95_ms", sim->p95_ms, "ms"},
            {"sim_latency_p95_samples", static_cast<double>(sim->samples), "count"},
            {"sim_latency_std_ms", sim->std_ms, "ms"},
            {"slo_miss_frac", sim->slo_miss_frac, "frac"},
            {"slo_met_frac", 1.0 - sim->slo_miss_frac, "frac"},
            {"sim_peak_temp_c", sim->peak_temp_c, "C"},
            {"passes", static_cast<double>(walls.size()), "count"},
        };
    }
    std::printf("pass_walls_s");
    for (const double v : walls) std::printf(" %.4f", v);
    std::printf("\n");
    emit(o, tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}

// --- traced run: per-layer metrics ------------------------------------------

void add_layer_metrics(std::vector<Metric>& m, const prof::Report& report) {
    if (!prof::kCompiled) return; // absent, never zero, without the profiler
    std::map<std::string, const prof::RegionReport*> regions;
    for (const auto& r : report.regions) regions[r.name] = &r;
    std::map<std::string, std::uint64_t> counters;
    for (const auto& c : report.counters) counters[c.name] = c.value;
    const auto self_s = [&](const char* name) {
        const auto it = regions.find(name);
        return it == regions.end() ? 0.0 : static_cast<double>(it->second->self_ns()) * 1e-9;
    };
    const auto calls = [&](const char* name) {
        const auto it = regions.find(name);
        return it == regions.end() ? 0.0 : static_cast<double>(it->second->calls);
    };
    const auto total_s = [&](const char* name) {
        const auto it = regions.find(name);
        return it == regions.end() ? 0.0 : static_cast<double>(it->second->total_ns) * 1e-9;
    };
    const auto counter = [&](const char* name) {
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    const double train_calls = calls("rl.train_batch");
    const double advance_calls = calls("device.advance");
    m.insert(m.end(), {
        {"rl.train_batch.self_s", self_s("rl.train_batch"), "s"},
        {"rl.train_batch.calls", train_calls, "count"},
        {"rl.us_per_train_step", ratio(total_s("rl.train_batch") * 1e6, train_calls), "us"},
        {"rl.act.self_s", self_s("rl.act"), "s"},
        {"rl.matmul_rows", counter("rl.matmul_rows"), "count"},
        {"rl.matmul_calls", counter("rl.matmul_calls"), "count"},
        {"rl.matvec_calls", counter("rl.matvec_calls"), "count"},
        {"platform.advance.calls", advance_calls, "count"},
        {"platform.advance.self_s", self_s("device.advance"), "s"},
        {"platform.thermal_segments", counter("device.thermal_segments"), "count"},
        {"platform.advance_per_frame", ratio(advance_calls, counter("engine.frames")), "count/frame"},
        {"fleet.run.self_s", self_s("fleet.run"), "s"},
        {"fleet.route.calls", calls("fleet.route"), "count"},
        {"fleet.route.self_s", self_s("fleet.route"), "s"},
        {"fleet.routed", counter("fleet.routed"), "count"},
        {"serving.run.self_s", self_s("serving.run"), "s"},
        {"serving.requests", counter("serving.requests"), "count"},
        {"runtime.run_frame.self_s", self_s("engine.run_frame"), "s"},
        {"runtime.frames", counter("engine.frames"), "count"},
    });
}

/// Events in the written events.jsonl files and how many are `tick`
/// instants.
std::pair<std::uint64_t, std::uint64_t> count_events(const fs::path& telemetry_dir) {
    std::uint64_t events = 0, ticks = 0;
    if (!fs::exists(telemetry_dir)) return {0, 0};
    for (const auto& e : fs::recursive_directory_iterator(telemetry_dir)) {
        if (!e.is_regular_file() || e.path().filename() != "events.jsonl") continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::string line;
        while (std::getline(in, line)) {
            ++events;
            if (line.find("\"ph\":\"i\"") != std::string::npos &&
                line.find("\"name\":\"tick\"") != std::string::npos) {
                ++ticks;
            }
        }
    }
    return {events, ticks};
}

int run_traced(const Options& o, const Workload& w) {
    const auto alloc0 = alloc_counts();
    if (!alloc0) usage("--trace needs the perfbench_traced binary");
    const h::Scenario plain = resolve_scenario(w);
    const h::Scenario timed = with_timed_governors(plain);
    const auto cfg = harness_config(w, o.seed);

    // Untraced and traced passes alternate, so drift on the host hits both.
    Tally tally;
    std::vector<double> plain_walls, plain_harness, traced_walls;
    std::vector<Metric> layers;
    std::size_t pairs = 0;
    const auto start = Clock::now();
    do {
        prof::set_enabled(false);
        Pass a = run_pass(plain, cfg, o.out);
        if (a.failed == 0) {
            plain_walls.push_back(a.wall_s);
            plain_harness.push_back(a.harness_s);
        }
        tally.add(a);

        prof::reset();
        governor_stats() = {};
        const auto before = alloc_counts();
        prof::set_enabled(true);
        Pass b = run_pass(timed, cfg, o.out);
        prof::set_enabled(false);
        const auto after = alloc_counts();
        const auto report = prof::capture();
        if (b.failed == 0) {
            traced_walls.push_back(b.wall_s);
            if (layers.empty()) {
                const auto sim = sim_metrics(w, b.results);
                const auto& gs = governor_stats();
                add_layer_metrics(layers, report);
                std::uint64_t recorded = 0;
                for (const auto& r : b.results) {
                    if (r.telemetry) recorded += r.telemetry->event_count();
                }
                const auto [events, ticks] = count_events(o.out + "/telemetry");
                const auto ratio = [](double x, double y) { return y > 0.0 ? x / y : 0.0; };
                layers.insert(layers.end(), {
                    {"governors.decide.calls", static_cast<double>(gs.decide.calls), "count"},
                    {"governors.decide_s", static_cast<double>(gs.decide.ns) * 1e-9, "s"},
                    {"governors.learn.calls", static_cast<double>(gs.learn.calls), "count"},
                    {"governors.learn_s", static_cast<double>(gs.learn.ns) * 1e-9, "s"},
                    {"governors.tick.calls", static_cast<double>(gs.tick.calls), "count"},
                    {"governors.tick_s", static_cast<double>(gs.tick.ns) * 1e-9, "s"},
                    {"telemetry.events", static_cast<double>(recorded), "count"},
                    {"telemetry.events_per_frame",
                     ratio(static_cast<double>(recorded), static_cast<double>(sim.frames)),
                     "count/frame"},
                    {"telemetry.tick_events_frac",
                     ratio(static_cast<double>(ticks), static_cast<double>(events)), "frac"},
                    {"telemetry.write_s", b.write_s, "s"},
                });
                for (const auto& artifact : telemetry_artifacts()) {
                    std::uint64_t bytes = 0;
                    const auto base = fs::path(o.out) / "telemetry";
                    if (fs::exists(base)) {
                        for (const auto& e : fs::recursive_directory_iterator(base)) {
                            if (e.is_regular_file() && e.path().filename() == artifact) {
                                bytes += e.file_size();
                            }
                        }
                    }
                    std::string key = artifact;
                    std::replace(key.begin(), key.end(), '.', '_');
                    layers.push_back({"telemetry.bytes." + key, static_cast<double>(bytes), "B"});
                }
                layers.insert(layers.end(), {
                    {"harness.run_s", b.harness_s, "s"},
                    {"harness.render_s", b.render_s, "s"},
                    {"alloc.count", static_cast<double>(after->count - before->count), "count"},
                    {"alloc.bytes", static_cast<double>(after->bytes - before->bytes), "B"},
                });
                if (events != recorded) {
                    b.problems.push_back("events.jsonl lines differ from recorded events");
                    b.failed = b.attempted;
                }
            }
        }
        tally.add(b);
    } while (another_pass(start, o.seconds, ++pairs));

    std::vector<Metric> metrics;
    if (!layers.empty() && !plain_walls.empty()) {
        metrics = std::move(layers);
        // Recording cost: the same config with telemetry off, untraced.
        double record_s = 0.0;
        if (w.telemetry) {
            auto off = cfg;
            off.telemetry = false;
            // Telemetry must not perturb the simulation, so this pass's
            // digest joins the agreement check too.
            Pass c = run_pass(plain, off, o.out + "_notelemetry");
            fs::remove_all(o.out + "_notelemetry");
            if (c.failed == 0) record_s = median(plain_harness) - c.harness_s;
            tally.add(c);
        }
        metrics.push_back({"telemetry.record_s", record_s, "s"});
        metrics.push_back(
            {"trace.overhead_frac", median(traced_walls) / median(plain_walls) - 1.0, "frac"});
        metrics.push_back({"trace.passes", static_cast<double>(traced_walls.size()), "count"});
    }
    emit(o, tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    for (const char* var : {"LOTUS_BENCH_FAST", "LOTUS_BENCH_JOBS"}) {
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: %s is set; the benchmark fixes workload sizes and the job "
                         "count itself, so the run would measure a different program. Unset it.\n",
                         var);
            return 2;
        }
    }
    const Options o = parse(argc, argv);
    const Workload& w = *find_workload(o.workload);
    try {
        const CpuRotation rotation;
        return o.trace ? run_traced(o, w) : run_untraced(o, w);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
