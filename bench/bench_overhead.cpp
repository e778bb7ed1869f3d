// Sec. 4.4.2 reproduction: overhead analysis of the LOTUS agent.
//
// The paper reports, per inference: Q-network forward 0.42 ms (on an RTX
// 2080Ti), 1.92 ms per socket message, 8.52 ms total across the two
// decisions. Two views here:
//
//  * wall-clock microbenchmarks of *our* Q-network and decision path (the
//    absolute values depend on the host CPU; the point is that the compute
//    is sub-millisecond, dwarfed by the detector's hundreds of
//    milliseconds);
//  * the `overhead_analysis` registry scenario run on the shared
//    ExperimentHarness: the modelled per-decision communication cost that
//    the engine charges to every frame, as a share of the measured frame
//    latency, for zTT (one decision) vs LOTUS (two decisions).
//
// The wall-clock numbers are inherently non-deterministic; everything
// driven through the harness is seed-reproducible like every other bench.

// The bench also gates the simulator's own cost. Each check below fails the
// bench (non-zero exit; it runs as a CTest smoke); the perf-trajectory cells
// are written to BENCH_overhead.json, which CI compares with
// bench/BENCH_overhead.baseline.json through tools/check_bench_regression.py.
// "Same JSON" means byte-identical scenario JSON.
//
//  * thermal stepper: >= 3x fewer steps than 20 ms Euler slicing, metrics within 1%;
//  * train_step: scalar and batched DQN math give bit-identical losses;
//  * serve_saturation: same JSON in both math modes, >= 2x fewer matvecs, faster (full mode);
//  * summary_only_ledgers: same JSON as full row capture, fewer allocated bytes;
//  * profiler_overhead: timers cost < 2% (or < 50 ms) of serve_fleet_saturation;
//  * telemetry_overhead: same JSON with recording on, events > 0, cost < 50% (or < 100 ms);
//  * trace_replay: replay gives the recorded JSON, requests > 0, cost < 50% (or < 100 ms);
//  * fleet_kernel: a 64-device ondemand fleet makes <= 25 device.advance calls per request.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <optional>

#include "common.hpp"
#include "harness/sinks.hpp"
#include "prof/profiler.hpp"
#include "telemetry/recorder.hpp"
#include "util/build_info.hpp"

using namespace lotus;

// ---------------------------------------------------------------------------
// Allocation accounting. This binary replaces the global allocation
// functions with thin malloc wrappers that bump one relaxed counter, so the
// perf-trajectory cells below can report allocations per scenario run (the
// summary-only ledger fast path exists to drive that number down). The
// override is linked into the bench binary only; liblotus is untouched.
// Over-aligned allocations keep the toolchain defaults (uncounted) -- the
// simulator allocates none.

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) noexcept {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

std::uint64_t alloc_count() noexcept {
    return g_alloc_count.load(std::memory_order_relaxed);
}

std::uint64_t alloc_bytes() noexcept {
    return g_alloc_bytes.load(std::memory_order_relaxed);
}

} // namespace

void* operator new(std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

/// Optimization barrier for the microbench loops.
volatile double g_sink = 0.0;

template <typename F>
double mean_us_per_call(F&& fn, int calls) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count() / calls;
}

rl::MlpConfig paper_qnet_config() {
    // 4-layer MLP over the 7-feature state and the Orin's 48 joint actions.
    rl::MlpConfig cfg;
    cfg.dims = {core::kStateDim, 128, 128, 128, 48};
    cfg.slim_input = true;
    cfg.seed = 1;
    return cfg;
}

/// The 256-transition replay buffer the train-step benchmarks sample from.
rl::ReplayBuffer paper_replay_buffer(util::Rng& rng) {
    rl::ReplayBuffer buffer(256);
    for (int i = 0; i < 256; ++i) {
        rl::Transition t;
        t.state = std::vector<double>(core::kStateDim, rng.uniform());
        t.action = static_cast<int>(rng.uniform_int(0, 47));
        t.reward = rng.uniform(-1, 2);
        t.next_state = std::vector<double>(core::kStateDim, rng.uniform());
        t.width_state = (i % 2 == 0) ? 0.75 : 1.0;
        t.width_next = (i % 2 == 0) ? 1.0 : 0.75;
        buffer.push(std::move(t));
    }
    return buffer;
}

void microbench() {
    const int calls = harness::fast_mode() ? 200 : 2000;
    util::TextTable table({"operation", "mean (us/call)"});

    {
        rl::SlimmableMlp net(paper_qnet_config());
        const std::vector<double> x(core::kStateDim, 0.5);
        table.add_row({"Q-network forward, width 1.0",
                       util::format_double(mean_us_per_call(
                           [&] { g_sink = net.forward(x, 1.0)[0]; }, calls), 2)});
        table.add_row({"Q-network forward, width 0.75",
                       util::format_double(mean_us_per_call(
                           [&] { g_sink = net.forward(x, 0.75)[0]; }, calls), 2)});
    }
    {
        rl::DqnConfig dqn_cfg;
        dqn_cfg.batch_size = 32;
        rl::DqnCore dqn(paper_qnet_config(), dqn_cfg);
        util::Rng rng(3);
        const auto buffer = paper_replay_buffer(rng);
        table.add_row({"DQN train step, batch 32",
                       util::format_double(mean_us_per_call(
                           [&] { g_sink = dqn.train_step(buffer, rng, 1); },
                           calls / 10 + 1), 2)});
    }
    {
        // Both per-frame decisions including state encoding and action
        // decode -- the client-visible compute cost of the agent (excluding
        // the modelled socket latency, which the engine charges as dead
        // time).
        core::LotusConfig cfg;
        cfg.train_online = false;
        core::LotusAgent agent(8, 6, cfg);
        governors::Observation start;
        start.cpu_temp = 60;
        start.gpu_temp = 70;
        start.cpu_level = 5;
        start.gpu_level = 3;
        start.cpu_levels = 8;
        start.gpu_levels = 6;
        start.latency_constraint_s = 0.45;
        start.last_frame_latency_s = 0.4;
        auto rpn = start;
        rpn.proposals = 200;
        rpn.elapsed_in_frame_s = 0.3;
        governors::FrameOutcome outcome;
        outcome.latency_s = 0.4;
        outcome.latency_constraint_s = 0.45;
        outcome.cpu_temp = 60;
        outcome.gpu_temp = 70;
        table.add_row({"LOTUS decision pair (inference only)",
                       util::format_double(mean_us_per_call(
                           [&] {
                               g_sink = agent.on_frame_start(start).has_request ? 1.0 : 0.0;
                               g_sink = agent.on_post_rpn(rpn).has_request ? 1.0 : 0.0;
                               agent.on_frame_end(outcome);
                           },
                           calls), 2)});
    }
    std::printf("%s", table.render("wall-clock microbenchmarks (host CPU)").c_str());
    std::printf("(paper, Sec. 4.4.2: 0.42 ms per Q-network forward on an RTX 2080Ti)\n\n");
}

/// Relative deviation, safe around zero.
double rel_dev(double value, double reference) {
    const double denom = std::max(std::abs(reference), 1e-9);
    return std::abs(value - reference) / denom;
}

struct StepperRun {
    serving::ServingTrace trace;
    serving::ServingSummary agg;
};

StepperRun run_stepper(const serving::ServingConfig& base, platform::ThermalStepping mode,
                       const std::string& governor_name) {
    auto cfg = base;
    cfg.device_spec.thermal_stepping = mode;
    cfg.pretrain_iterations = 0; // deterministic baselines need no warm-up
    std::unique_ptr<governors::Governor> governor;
    if (governor_name == "default") {
        governor = std::make_unique<governors::KernelGovernor>(
            governors::KernelGovernor::orin_nano());
    } else {
        governor = std::make_unique<governors::FixedGovernor>(SIZE_MAX, SIZE_MAX);
    }
    const serving::ServingEngine engine(cfg);
    auto trace = engine.run(*governor);
    auto agg = trace.aggregate();
    return {std::move(trace), std::move(agg)};
}

/// Compare closed-form vs Euler slicing on serve_saturation; returns false
/// (failing the bench) if the acceptance bar is missed.
bool stepper_comparison() {
    const auto& sc = bench::scenario("serve_saturation");
    if (!sc.serving) {
        std::printf("serve_saturation is not a serving scenario?\n");
        return false;
    }

    bool ok = true;
    std::uint64_t total_euler = 0;
    std::uint64_t total_closed = 0;
    util::TextTable table({"governor", "steps (euler)", "steps (closed)", "reduction",
                           "max metric dev (%)"});
    for (const std::string gov : {"default", "performance"}) {
        const auto euler =
            run_stepper(*sc.serving, platform::ThermalStepping::euler_slice, gov);
        const auto closed =
            run_stepper(*sc.serving, platform::ThermalStepping::closed_form, gov);
        total_euler += euler.trace.thermal_steps();
        total_closed += closed.trace.thermal_steps();

        const double reduction = static_cast<double>(euler.trace.thermal_steps()) /
                                 static_cast<double>(closed.trace.thermal_steps());
        // Per-frame latency/temperature metrics of the serving run; every
        // one must stay within 1% of the slice-based reference.
        const double devs[] = {
            rel_dev(closed.agg.p50_ms, euler.agg.p50_ms),
            rel_dev(closed.agg.p95_ms, euler.agg.p95_ms),
            rel_dev(closed.agg.mean_device_temp_c, euler.agg.mean_device_temp_c),
            rel_dev(closed.agg.peak_device_temp_c, euler.agg.peak_device_temp_c),
        };
        double max_dev = 0.0;
        for (const double d : devs) max_dev = std::max(max_dev, d);

        table.add_row({gov, std::to_string(euler.trace.thermal_steps()),
                       std::to_string(closed.trace.thermal_steps()),
                       util::format_double(reduction, 1) + "x",
                       util::format_double(max_dev * 100.0, 3)});
        if (max_dev > 0.01) {
            std::printf("FAIL: %s: metric deviation %.3f%% > 1%%\n", gov.c_str(),
                        max_dev * 100.0);
            ok = false;
        }
    }
    // The scenario-level bar: >= 3x fewer integration steps across the
    // compared arms. (The 20 ms-tick kernel governor alone is structurally
    // capped near 4x -- its tick deadlines force 20 ms segments -- while
    // frame-grained governors reach 7x+.)
    const double total_reduction =
        static_cast<double>(total_euler) / static_cast<double>(total_closed);
    table.add_row({"TOTAL", std::to_string(total_euler), std::to_string(total_closed),
                   util::format_double(total_reduction, 1) + "x", "-"});
    if (total_reduction < 3.0) {
        std::printf("FAIL: scenario step reduction %.2fx < 3x\n", total_reduction);
        ok = false;
    }
    std::printf("%s", table.render(
        "thermal stepper: closed-form exponential vs 20 ms slicing + 5 ms Euler "
        "(serve_saturation)").c_str());
    std::printf("Metrics compared: aggregate p50/p95 end-to-end latency, mean and peak\n"
                "device temperature. Both integrators are deterministic, so --jobs N\n"
                "output stays byte-identical (CI diffs serial vs parallel runs).\n\n");
    return ok;
}

// ---------------------------------------------------------------------------
// Perf trajectory: a table of cells, each returning its printed rows, the
// FAIL messages of the gates it missed and its object under "cells" in
// BENCH_overhead.json.

/// printf into a std::string (cell text and FAIL messages).
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

/// A JSON object under construction, fields in insertion order. Numbers
/// go through jnum (non-finite values become null), strings through jstr;
/// integer counters print exactly.
class JsonObject {
public:
    JsonObject& num(const std::string& k, double v) { return add(k, telemetry::jnum(v)); }
    JsonObject& count(const std::string& k, std::uint64_t v) { return add(k, std::to_string(v)); }
    JsonObject& flag(const std::string& k, bool v) { return add(k, v ? "true" : "false"); }
    JsonObject& str(const std::string& k, const std::string& v) {
        return add(k, telemetry::jstr(v));
    }
    JsonObject& obj(const std::string& k, const JsonObject& v) {
        nested_ = true;
        return add(k, v.render());
    }

    /// Objects of scalars render on one line, others one field per line.
    [[nodiscard]] std::string render() const {
        std::string o = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            o += i == 0 ? "" : nested_ ? "," : ", ";
            o += (nested_ ? "\n  " : "") + telemetry::jstr(fields_[i].first) + ": ";
            for (const char c : fields_[i].second) o += c == '\n' ? "\n  " : std::string(1, c);
        }
        return o + (nested_ ? "\n}" : "}");
    }

private:
    JsonObject& add(const std::string& k, std::string v) {
        fields_.emplace_back(k, std::move(v));
        return *this;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
    bool nested_ = false;
};

struct CellResult {
    std::string text;
    std::vector<std::string> failures;
    JsonObject json;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct TrainRun {
    double us_per_step = 0.0;
    std::uint64_t matvec_calls = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
    std::vector<double> losses;

    [[nodiscard]] JsonObject json() const {
        return JsonObject()
            .num("us_per_step", us_per_step)
            .count("matvec_calls", matvec_calls)
            .count("allocs", allocs)
            .count("alloc_bytes", alloc_bytes);
    }
};

/// Time `steps` DQN updates under one DqnMath mode. Both runs fill the
/// replay buffer and sample batches from identically seeded RNGs, so the
/// loss sequences must match bit for bit (the batched-math contract).
TrainRun run_train(rl::DqnMath math, int steps) {
    rl::DqnConfig dqn_cfg;
    dqn_cfg.batch_size = 32;
    dqn_cfg.math = math;
    rl::DqnCore dqn(paper_qnet_config(), dqn_cfg);
    util::Rng fill(3);
    const auto buffer = paper_replay_buffer(fill);
    util::Rng rng(11); // batch sampling; same seed per run -> same batches
    TrainRun run;
    run.losses.reserve(static_cast<std::size_t>(steps));
    prof::reset();
    const std::uint64_t a0 = alloc_count();
    const std::uint64_t b0 = alloc_bytes();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) run.losses.push_back(dqn.train_step(buffer, rng, 1));
    run.us_per_step = seconds_since(t0) * 1e6 / steps;
    run.allocs = alloc_count() - a0;
    run.alloc_bytes = alloc_bytes() - b0;
    run.matvec_calls = prof::counter_total("rl.matvec_calls");
    return run;
}

CellResult train_step_cell(int steps) {
    const auto scalar = run_train(rl::DqnMath::scalar, steps);
    const auto batched = run_train(rl::DqnMath::batched, steps);
    const bool identical = scalar.losses == batched.losses;
    const double speedup = scalar.us_per_step / batched.us_per_step;

    CellResult c;
    if (!identical) c.failures.emplace_back("scalar and batched train losses diverge");
    util::TextTable table({"train step (batch 32)", "us/step", "matvec calls", "allocs"});
    for (const auto& [name, r] : {std::pair{"scalar", &scalar}, std::pair{"batched", &batched}}) {
        table.add_row({name, util::format_double(r->us_per_step, 2),
                       std::to_string(r->matvec_calls), std::to_string(r->allocs)});
    }
    table.add_row({"speedup", util::format_double(speedup, 2) + "x", "-",
                   identical ? "losses bit-identical" : "LOSSES DIVERGE"});
    c.text = table.render("DQN math: scalar reference vs blocked batched (" +
                          std::to_string(steps) + " steps)");
    c.json.obj("scalar", scalar.json())
        .obj("batched", batched.json())
        .num("speedup", speedup)
        .flag("loss_bit_identical", identical);
    return c;
}

struct ServeRun {
    double wall_s = 0.0;
    double requests_per_sec = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t thermal_steps = 0;
    std::uint64_t matvec_calls = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
    std::string json_text; ///< scenario JSON

    [[nodiscard]] JsonObject json() const {
        return JsonObject()
            .num("wall_s", wall_s)
            .count("requests", requests)
            .num("requests_per_sec", requests_per_sec)
            .count("thermal_steps", thermal_steps)
            .count("matvec_calls", matvec_calls)
            .count("allocs", allocs)
            .count("alloc_bytes", alloc_bytes);
    }
};

/// Run one full registry scenario on a fresh harness. `repeats > 1` re-runs
/// for a min-of-N wall-clock (deterministic output, so only the first run's
/// JSON/counters are kept). The forced DqnMath mode applies to every agent
/// the episodes construct and is always restored to per-config behaviour.
ServeRun run_serve(const bench::Scenario& sc, rl::DqnMath math, bool summary_only,
                   int repeats) {
    rl::force_dqn_math(math);
    auto cfg = bench::harness_config();
    cfg.summary_only = summary_only;
    const harness::ExperimentHarness h(cfg);
    ServeRun run;
    for (int rep = 0; rep < repeats; ++rep) {
        prof::reset();
        const std::uint64_t a0 = alloc_count();
        const std::uint64_t b0 = alloc_bytes();
        const auto t0 = std::chrono::steady_clock::now();
        const auto results = h.run(sc);
        const double wall = seconds_since(t0);
        if (rep > 0) {
            run.wall_s = std::min(run.wall_s, wall);
            continue;
        }
        run.wall_s = wall;
        run.allocs = alloc_count() - a0;
        run.alloc_bytes = alloc_bytes() - b0;
        run.matvec_calls = prof::counter_total("rl.matvec_calls");
        for (const auto& r : results) {
            if (!r.serving_trace) continue;
            run.requests += r.serving_trace->size();
            run.thermal_steps += r.serving_trace->thermal_steps();
        }
        run.json_text = harness::scenario_json(sc, results);
    }
    run.requests_per_sec = static_cast<double>(run.requests) / std::max(run.wall_s, 1e-9);
    rl::force_dqn_math(std::nullopt);
    return run;
}

std::string serve_table(const std::string& title, const char* name_a, const ServeRun& a,
                        const char* name_b, const ServeRun& b) {
    util::TextTable table({"serve_saturation run", "wall (s)", "req/s", "thermal steps",
                           "matvec calls", "allocs", "alloc MB"});
    for (const auto& [name, r] : {std::pair{name_a, &a}, std::pair{name_b, &b}}) {
        table.add_row({name, util::format_double(r->wall_s, 3),
                       util::format_double(r->requests_per_sec, 1),
                       std::to_string(r->thermal_steps), std::to_string(r->matvec_calls),
                       std::to_string(r->allocs),
                       util::format_double(static_cast<double>(r->alloc_bytes) / 1e6, 2)});
    }
    return table.render(title);
}

/// serve_saturation under scalar and batched math, both with full ledgers;
/// the batched run is kept in `batched` for the summary-only cell.
CellResult serve_saturation_cell(const bench::Scenario& sc, int repeats, ServeRun& batched) {
    const auto scalar = run_serve(sc, rl::DqnMath::scalar, false, repeats);
    batched = run_serve(sc, rl::DqnMath::batched, false, repeats);
    const bool identical = scalar.json_text == batched.json_text;
    const double speedup = scalar.wall_s / batched.wall_s;
    const double matvec_reduction =
        static_cast<double>(scalar.matvec_calls) /
        static_cast<double>(std::max<std::uint64_t>(batched.matvec_calls, 1));

    CellResult c;
    if (!identical) c.failures.emplace_back("serve_saturation JSON differs between DqnMath modes");
    if (prof::kCompiled && matvec_reduction < 2.0) {
        c.failures.push_back(strf("batched math issues only %.2fx fewer scalar matvecs (< 2x)",
                                  matvec_reduction));
    }
    // Wall-clock improvement bar: only in full mode, where the episodes are
    // long enough that scheduler noise cannot flip the sign.
    if (!harness::fast_mode() && speedup <= 1.0) {
        c.failures.push_back(strf("batched math is not faster end to end (%.2fx)", speedup));
    }
    c.text = serve_table("DQN math on serve_saturation (all arms; JSON byte-identical)",
                         "scalar math, full ledger", scalar, "batched math, full ledger",
                         batched) +
             strf("batched speedup %.2fx, matvec reduction %.1fx\n\n", speedup,
                  matvec_reduction);
    c.json.obj("scalar", scalar.json())
        .obj("batched", batched.json())
        .num("speedup", speedup)
        .num("matvec_reduction", matvec_reduction)
        .flag("summaries_bit_identical", identical);
    return c;
}

/// Summary-only ledgers vs full row capture (the serve cell's batched run).
/// Row capture is already allocation-*count* cheap (one reserve per trace),
/// so the fast path's win is the O(requests) row storage it never
/// materialises: the gate is on allocated bytes.
CellResult summary_only_cell(const bench::Scenario& sc, int repeats, const ServeRun& full) {
    const auto summary = run_serve(sc, rl::DqnMath::batched, /*summary_only=*/true, repeats);
    const bool identical = summary.json_text == full.json_text;
    const std::uint64_t saved =
        full.alloc_bytes > summary.alloc_bytes ? full.alloc_bytes - summary.alloc_bytes : 0;

    CellResult c;
    if (!identical) c.failures.emplace_back("summary-only JSON differs from full-ledger JSON");
    if (summary.alloc_bytes >= full.alloc_bytes) {
        c.failures.push_back(strf("summary-only mode does not shrink allocated bytes "
                                  "(%llu >= %llu)",
                                  static_cast<unsigned long long>(summary.alloc_bytes),
                                  static_cast<unsigned long long>(full.alloc_bytes)));
    }
    c.text = serve_table("ledgers on serve_saturation (batched math; JSON byte-identical)",
                         "full ledger", full, "summary-only", summary) +
             strf("summary-only skips %.0f KB of ledger rows\n\n",
                  static_cast<double>(saved) / 1e3);
    c.json.obj("full", full.json())
        .obj("summary_only", summary.json())
        .count("ledger_bytes_saved", saved)
        .flag("json_bit_identical", identical);
    return c;
}

/// One timed scenario run (the result is discarded, only the clock matters).
double wall_of(const bench::Scenario& sc, const harness::HarnessConfig& cfg, bool timers) {
    prof::set_enabled(timers);
    const harness::ExperimentHarness h(cfg);
    prof::reset();
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = h.run(sc);
    const double wall = seconds_since(t0);
    g_sink = static_cast<double>(results.size());
    return wall;
}

/// A counter summed over the episodes of a run.
struct Tally {
    const char* key;
    std::uint64_t (*of)(const harness::EpisodeResult&);
    const char* zero_failure; ///< FAIL message when the total is zero, or nullptr
};

std::uint64_t events_of(const harness::EpisodeResult& r) {
    return r.telemetry ? r.telemetry->event_count() : 0;
}
std::uint64_t breaches_of(const harness::EpisodeResult& r) {
    return r.telemetry ? r.telemetry->breach_count() : 0;
}
std::uint64_t requests_of(const harness::EpisodeResult& r) {
    return r.serving_trace ? r.serving_trace->size() : 0;
}

/// An overhead cell: `scenario` timed under `off` and `on`, two interleaved
/// (off, on) pairs after a warm-up, min of N per side, so clock drift and
/// cache warm-up hit both sides equally. The cell fails when the overhead
/// is over `max_pct` percent AND over `floor_s` seconds.
struct OnOffSpec {
    const char* scenario;
    const char* what;    ///< printed label of the measured cost
    const char* off_key; ///< JSON: <off_key>_wall_s
    const char* on_key;
    harness::HarnessConfig off;
    harness::HarnessConfig on;
    /// The on side runs the profiler's timers, and the bar applies only
    /// when the profiler is compiled in.
    bool profiler_timers = false;
    /// Correctness pair, run once before the timed pairs and doubling as
    /// their warm-up: its scenario JSON must match byte for byte, else
    /// `json_failure`. Without one, a discarded run of `off` warms up.
    std::optional<std::pair<harness::HarnessConfig, harness::HarnessConfig>> json_pair = {};
    const char* json_failure = nullptr;
    std::vector<Tally> tallies = {}; ///< over json_pair's second run
    double max_pct = 50.0;
    double floor_s = 0.1;
    const char* fail_format = nullptr; ///< printf format of the bar's FAIL, given the %
};

CellResult run_on_off(const OnOffSpec& s) {
    const auto& sc = bench::scenario(s.scenario);
    CellResult c;
    std::string notes;
    bool identical = false;
    std::vector<std::pair<const char*, std::uint64_t>> totals;
    if (s.json_pair) {
        const auto off = harness::ExperimentHarness(s.json_pair->first).run(sc);
        const auto on = harness::ExperimentHarness(s.json_pair->second).run(sc);
        identical = harness::scenario_json(sc, off) == harness::scenario_json(sc, on);
        if (!identical) c.failures.emplace_back(s.json_failure);
        for (const auto& t : s.tallies) {
            std::uint64_t total = 0;
            for (const auto& r : on) total += t.of(r);
            if (total == 0 && t.zero_failure != nullptr) c.failures.emplace_back(t.zero_failure);
            totals.emplace_back(t.key, total);
            notes += strf(", %llu %s", static_cast<unsigned long long>(total), t.key);
        }
        notes += identical ? ", JSON byte-identical" : ", JSON DIFFERS";
    } else {
        g_sink = wall_of(sc, s.off, false); // warm-up, discarded
    }
    double off_s = 0.0;
    double on_s = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        const double off = wall_of(sc, s.off, false);
        const double on = wall_of(sc, s.on, s.profiler_timers);
        off_s = rep == 0 ? off : std::min(off_s, off);
        on_s = rep == 0 ? on : std::min(on_s, on);
    }
    prof::set_enabled(false);
    prof::reset();

    const double pct = (on_s - off_s) / std::max(off_s, 1e-9) * 100.0;
    const bool gated = prof::kCompiled || !s.profiler_timers;
    if (gated && pct > s.max_pct && (on_s - off_s) > s.floor_s) {
        c.failures.push_back(strf(s.fail_format, pct));
    }
    if (!gated) notes += "; profiler compiled out";
    c.text = strf("%s on %s: %s %.3fs, %s %.3fs (%.2f%% overhead%s)\n\n", s.what, s.scenario,
                  s.off_key, off_s, s.on_key, on_s, pct, notes.c_str());
    c.json.str("scenario", s.scenario)
        .num(std::string(s.off_key) + "_wall_s", off_s)
        .num(std::string(s.on_key) + "_wall_s", on_s)
        .num("overhead_pct", pct);
    for (const auto& [key, total] : totals) c.json.count(key, total);
    if (s.json_pair) c.json.flag("json_bit_identical", identical);
    return c;
}

/// Counts kernel-timer ticks on the way to the wrapped governor.
class TickCounter final : public governors::Governor {
public:
    TickCounter(std::unique_ptr<governors::Governor> inner, std::uint64_t& ticks)
        : inner_(std::move(inner)), ticks_(ticks) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] double tick_interval_s() const override { return inner_->tick_interval_s(); }
    governors::LevelRequest on_tick(const governors::TickObservation& tick) override {
        ++ticks_;
        return inner_->on_tick(tick);
    }

private:
    std::unique_ptr<governors::Governor> inner_;
    std::uint64_t& ticks_;
};

/// The non-learning fleet where the sim kernel sets the pace: 64 Orins
/// behind least_queue, 128 phase-staggered Poisson KITTI streams at 0.5
/// req/s, one ondemand kernel governor per device (the shape of `lotus_serve
/// --devices 64 --streams 128 --rate 0.5 --router least_queue --governor
/// ondemand`). The counters are deterministic and gated exactly against
/// the baseline; lazy idling keeps device.advance calls per request flat in
/// the pool size, so the cell fails above 25.
CellResult fleet_kernel_cell(std::size_t requests_per_stream) {
    constexpr std::size_t kDevices = 64;
    constexpr std::size_t kStreams = 2 * kDevices;
    constexpr double kRateHz = 0.5;
    constexpr double kMaxAdvancePerRequest = 25.0;
    const auto spec = platform::orin_nano_spec();
    const double constraint = workload::latency_constraint_s(
        spec.name, detector::DetectorKind::faster_rcnn, "KITTI");
    fleet::FleetConfig cfg;
    for (std::size_t d = 0; d < kDevices; ++d) {
        cfg.devices.push_back(fleet::make_device("orin" + std::to_string(d), spec));
    }
    cfg.scheduler = "edf";
    cfg.router = "least_queue";
    cfg.capture_rows = false;
    for (std::size_t i = 0; i < kStreams; ++i) {
        serving::StreamSpec st;
        st.name = "stream" + std::to_string(i);
        st.dataset = "KITTI";
        st.slo_s = 2.0 * constraint;
        st.requests = requests_per_stream;
        st.arrival.kind = serving::ArrivalKind::poisson;
        st.arrival.rate_hz = kRateHz;
        st.arrival.phase_s = static_cast<double>(i) / (kRateHz * static_cast<double>(kStreams));
        cfg.streams.push_back(std::move(st));
    }
    std::uint64_t ticks = 0; // FleetEngine::run is single-threaded
    const fleet::FleetEngine::GovernorFactory make_governor =
        [&ticks](const platform::DeviceSpec&,
                 std::uint64_t) -> std::unique_ptr<governors::Governor> {
        return std::make_unique<TickCounter>(
            std::make_unique<governors::KernelGovernor>("ondemand+simple_ondemand",
                                                        governors::CpuPolicyKind::ondemand,
                                                        governors::SimpleOndemandParams{}),
            ticks);
    };

    const fleet::FleetEngine engine(cfg);
    const bool was_enabled = prof::enabled();
    prof::set_enabled(true); // device.advance counts calls only while timed
    prof::reset();
    const auto t0 = std::chrono::steady_clock::now();
    const auto trace = engine.run(make_governor, 1);
    const double wall = seconds_since(t0);
    const auto report = prof::capture();
    prof::set_enabled(was_enabled);
    prof::reset();

    std::uint64_t advances = 0;
    for (const auto& r : report.regions) {
        if (r.name == "device.advance") advances += r.calls;
    }
    std::uint64_t segments = 0;
    for (const auto& c : report.counters) {
        if (c.name == "device.thermal_segments") segments += c.value;
    }
    const std::uint64_t requests = trace.aggregate().requests;
    const double per_request =
        static_cast<double>(advances) / static_cast<double>(std::max<std::uint64_t>(requests, 1));

    CellResult c;
    if (prof::kCompiled && per_request > kMaxAdvancePerRequest) {
        c.failures.push_back(strf("fleet_kernel: %.1f device.advance calls per request (> %.0f)",
                                  per_request, kMaxAdvancePerRequest));
    }
    util::TextTable table({"fleet (64 x ondemand, least_queue)", "wall (s)", "req/s",
                           "advance calls", "per request", "thermal segments",
                           "governor ticks"});
    table.add_row({std::to_string(requests) + " requests", util::format_double(wall, 3),
                   util::format_double(static_cast<double>(requests) / std::max(wall, 1e-9), 1),
                   std::to_string(advances), util::format_double(per_request, 2),
                   std::to_string(segments), std::to_string(ticks)});
    c.text = table.render("sim kernel on a non-learning fleet");
    c.json.num("wall_s", wall)
        .count("requests", requests)
        .num("requests_per_sec", static_cast<double>(requests) / std::max(wall, 1e-9))
        .count("advance_calls", advances)
        .count("thermal_segments", segments)
        .count("governor_ticks", ticks);
    return c;
}

struct Cell {
    const char* name; ///< key under "cells"
    std::function<CellResult()> run;
};

/// Run the cells in order, print them, gate the acceptance bars and write
/// BENCH_overhead.json. Returns false (failing the bench) on any missed bar.
bool perf_trajectory() {
    const bool fast = harness::fast_mode();
    const int repeats = fast ? 2 : 1;
    const auto& sc = bench::scenario("serve_saturation");
    auto lean = bench::harness_config();
    lean.summary_only = true;
    auto recording = lean;
    recording.telemetry = true;
    const auto trace_dir =
        (std::filesystem::temp_directory_path() / "bench_overhead_traces").string();
    auto capture = lean;
    capture.trace_dir = trace_dir;
    auto replay = lean;
    replay.replay_dir = trace_dir;
    ServeRun batched; // serve_saturation's full-ledger batched run

    const Cell cells[] = {
        {"train_step", [&] { return train_step_cell(fast ? 80 : 400); }},
        {"serve_saturation", [&] { return serve_saturation_cell(sc, repeats, batched); }},
        {"summary_only_ledgers", [&] { return summary_only_cell(sc, repeats, batched); }},
        // The 50 ms floor keeps the 2% bar meaningful on the tiny fast-mode
        // runs, where one scheduler hiccup exceeds 2%.
        {"profiler_overhead",
         [&] {
             return run_on_off(
                 {.scenario = "serve_fleet_saturation", .what = "profiler timers",
                  .off_key = "timers_off", .on_key = "timers_on", .off = lean, .on = lean,
                  .profiler_timers = true, .max_pct = 2.0, .floor_s = 0.05,
                  .fail_format = "profiler timers cost %.2f%% of serve_fleet_saturation (>= 2%%)"});
         }},
        // The hard gate is correctness: recording must not perturb the
        // simulation. The loose wall bar documents the per-event cost rather
        // than policing scheduler noise.
        {"telemetry_overhead",
         [&] {
             return run_on_off(
                 {.scenario = "serve_saturation", .what = "telemetry recording",
                  .off_key = "recording_off", .on_key = "recording_on", .off = lean,
                  .on = recording, .json_pair = std::pair{lean, recording},
                  .json_failure = "scenario JSON differs with telemetry recording on",
                  .tallies = {{"events", events_of, "telemetry recording captured zero events"},
                              {"breaches", breaches_of, nullptr}},
                  .fail_format = "telemetry recording costs %.2f%% of serve_saturation (>= 50%%)"});
         }},
        // Replay must be the same episode: the recorded run and the run
        // replayed from its .ltrc files give byte-identical JSON. Replay skips
        // the arrival/frame RNG work but pays file I/O, so it is timed against
        // analytic generation without capture.
        {"trace_replay",
         [&] {
             std::filesystem::remove_all(trace_dir);
             auto c = run_on_off(
                 {.scenario = "serve_saturation", .what = "trace replay",
                  .off_key = "generated", .on_key = "replayed", .off = lean, .on = replay,
                  .json_pair = std::pair{capture, replay},
                  .json_failure = "scenario JSON differs between recorded and replayed runs",
                  .tallies = {{"requests", requests_of, "replayed run served zero requests"}},
                  .fail_format = "trace replay costs %.2f%% over analytic generation (>= 50%%)"});
             std::filesystem::remove_all(trace_dir);
             return c;
         }},
        {"fleet_kernel", [&] { return fleet_kernel_cell(fast ? 25 : 100); }},
    };

    bool ok = true;
    JsonObject json_cells;
    for (const auto& cell : cells) {
        const auto c = cell.run();
        for (const auto& f : c.failures) std::printf("FAIL: %s\n", f.c_str());
        std::printf("%s", c.text.c_str());
        ok = ok && c.failures.empty();
        json_cells.obj(cell.name, c.json);
    }

    const auto doc = JsonObject()
                         .count("schema_version", util::kSchemaVersion)
                         .str("build", util::build_id())
                         .str("bench", "bench_overhead")
                         .flag("fast_mode", fast)
                         .flag("profiling_compiled", prof::kCompiled)
                         .obj("cells", json_cells);
    const char* out_path = "BENCH_overhead.json";
    std::ofstream out(out_path);
    out << doc.render() << "\n";
    if (!out) {
        std::printf("FAIL: could not write %s\n", out_path);
        return false;
    }
    std::printf("perf trajectory written to %s (schema_version %d)\n\n", out_path,
                util::kSchemaVersion);
    return ok;
}

} // namespace

int main() {
    std::printf("Sec. 4.4.2 -- overhead analysis of the agent\n\n");
    microbench();

    // Modelled communication overhead, via the registry scenario: how much
    // of each measured frame the engine charged to agent round-trips.
    const auto& sc = bench::scenario("overhead_analysis");
    const auto results = bench::run(sc);
    bench::maybe_dump_csv(sc.name, results);

    const double per_decision_ms = core::LotusConfig{}.decision_overhead_s * 1e3;
    util::TextTable table({"method", "decisions/frame", "charged overhead (ms)",
                           "mean frame (ms)", "overhead share (%)"});
    for (const auto& r : results) {
        const auto s = r.trace.summary();
        // zTT decides once per frame, LOTUS at frame start + post-RPN.
        const int decisions = (r.arm == "zTT") ? 1 : 2;
        const double overhead_ms = per_decision_ms * decisions;
        table.add_row({
            r.arm,
            std::to_string(decisions),
            util::format_double(overhead_ms, 2),
            util::format_double(s.mean_latency_s * 1e3, 1),
            util::format_double(100.0 * overhead_ms / (s.mean_latency_s * 1e3), 2),
        });
    }
    table.add_row({"(paper total)", "2", "8.52", "-", "-"});
    std::printf("%s", table.render(sc.title).c_str());
    std::printf("Expected shape: the agent costs a few ms per frame -- one to two percent\n"
                "of a several-hundred-ms detector inference, the paper's negligibility\n"
                "argument.\n\n");

    const bool stepper_ok = stepper_comparison();
    // Under instrumented builds (ASan CI) wall-clock ratios are meaningless
    // and the trajectory's runs are 10x slower; LOTUS_BENCH_SKIP_PERF=1
    // skips them (the deterministic byte-identity claims stay covered by
    // the test suite, which the sanitizer job runs in full).
    const char* skip = std::getenv("LOTUS_BENCH_SKIP_PERF");
    bool trajectory_ok = true;
    if (skip != nullptr && skip[0] != '\0' && skip[0] != '0') {
        std::printf("perf trajectory skipped (LOTUS_BENCH_SKIP_PERF)\n");
    } else {
        trajectory_ok = perf_trajectory();
    }
    return (stepper_ok && trajectory_ok) ? 0 : 1;
}
