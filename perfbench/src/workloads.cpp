// Workload definitions, sim metrics and output checks.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "fleet/engine.hpp"
#include "governors/linux_governors.hpp"
#include "platform/presets.hpp"
#include "runtime/runner.hpp"
#include "serving/engine.hpp"
#include "util/stats.hpp"
#include "workload/presets.hpp"

namespace perfbench {

namespace h = lotus::harness;

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"serve_learn", "Lotus", false},
        {"fleet_kernel", "", false},
        {"fleet_telemetry", "", true},
        {"paper_table", "Lotus", false},
    };
    return all;
}

const Workload* find_workload(const std::string& name) {
    for (const auto& w : workloads()) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

namespace {

/// A fleet built the way `lotus_serve --devices N --streams S --rate 0.5
/// --requests 100 --scheduler edf --router least_queue --governor ondemand`
/// builds one: Orin copies, phase-staggered Poisson KITTI streams, SLO twice
/// the calibrated per-frame constraint.
h::Scenario adhoc_fleet(std::size_t devices, std::size_t streams) {
    using lotus::detector::DetectorKind;
    const auto spec = lotus::platform::orin_nano_spec();
    const auto kind = DetectorKind::faster_rcnn;
    const std::string dataset = "KITTI";
    const double rate_hz = 0.5;
    const double constraint = lotus::workload::latency_constraint_s(spec.name, kind, dataset);

    h::Scenario s(lotus::runtime::static_experiment(spec, kind, dataset, 1, 0));
    s.name = "perfbench_fleet_" + std::to_string(devices);
    s.title = "perfbench ad-hoc fleet";

    lotus::fleet::FleetConfig cfg;
    for (std::size_t d = 0; d < devices; ++d) {
        cfg.devices.push_back(lotus::fleet::make_device("orin" + std::to_string(d), spec));
    }
    cfg.detector = kind;
    cfg.scheduler = "edf";
    cfg.router = "least_queue";
    cfg.pretrain_iterations = 2500; // lotus_serve's default; skipped for ondemand
    cfg.pretrain_constraint_s = constraint;
    for (std::size_t i = 0; i < streams; ++i) {
        lotus::serving::StreamSpec st;
        st.name = "stream" + std::to_string(i);
        st.dataset = dataset;
        st.slo_s = 2.0 * constraint;
        st.requests = 100;
        st.arrival.kind = lotus::serving::ArrivalKind::poisson;
        st.arrival.rate_hz = rate_hz;
        st.arrival.phase_s =
            static_cast<double>(i) / (rate_hz * static_cast<double>(streams));
        cfg.streams.push_back(std::move(st));
    }
    s.fleet = std::move(cfg);

    h::ArmSpec arm;
    arm.name = "ondemand";
    arm.make = [](std::uint64_t) -> std::unique_ptr<lotus::governors::Governor> {
        return std::make_unique<lotus::governors::KernelGovernor>(
            "ondemand+simple_ondemand", lotus::governors::CpuPolicyKind::ondemand,
            lotus::governors::SimpleOndemandParams{});
    };
    s.arms.push_back(std::move(arm));
    return s;
}

} // namespace

h::Scenario resolve_scenario(const Workload& w) {
    std::optional<h::Scenario> s;
    if (w.name == "fleet_kernel") {
        s = adhoc_fleet(256, 512);
    } else if (w.name == "fleet_telemetry") {
        s = adhoc_fleet(16, 32);
    } else {
        const h::ScenarioRegistry registry;
        const std::string key =
            w.name == "serve_learn" ? "serve_saturation" : "table1_frcnn_kitti";
        s = registry.at(key);
    }
    // Validation: the engines' constructors reject malformed configs.
    if (s->fleet) {
        (void)lotus::fleet::FleetEngine(*s->fleet);
    } else if (s->serving) {
        (void)lotus::serving::ServingEngine(*s->serving);
    } else {
        (void)lotus::runtime::ExperimentRunner(s->config);
    }
    if (s->arms.empty()) throw std::runtime_error(w.name + ": scenario has no arms");
    if (!w.headline_arm.empty() &&
        std::none_of(s->arms.begin(), s->arms.end(),
                     [&](const h::ArmSpec& a) { return a.name == w.headline_arm; })) {
        throw std::runtime_error(w.name + ": no arm named " + w.headline_arm);
    }
    return std::move(*s);
}

h::HarnessConfig harness_config(const Workload& w, std::uint64_t seed) {
    h::HarnessConfig cfg;
    cfg.jobs = 1;
    cfg.seed = seed;
    cfg.telemetry = w.telemetry;
    return cfg;
}

namespace {

const h::EpisodeResult& headline(const Workload& w,
                                 const std::vector<h::EpisodeResult>& results) {
    if (w.headline_arm.empty()) return results.front();
    for (const auto& r : results) {
        if (r.arm == w.headline_arm) return r;
    }
    throw std::runtime_error(w.name + ": headline arm missing from results");
}

} // namespace

SimMetrics sim_metrics(const Workload& w, const std::vector<h::EpisodeResult>& results) {
    SimMetrics m;
    for (const auto& r : results) {
        // Every request is simulated, shed or served; counting only served
        // ones would make host throughput follow the seed (zTT sheds 66% to
        // 100% of serve_saturation's requests on seeds 1-3).
        if (r.fleet_trace) {
            m.frames += r.fleet_trace->aggregate().requests;
        } else if (r.serving_trace) {
            m.frames += r.serving_trace->aggregate().requests;
        } else {
            m.frames += r.trace.size();
        }
    }

    const auto& r = headline(w, results);
    std::vector<double> lat_ms;
    if (r.fleet_trace || r.serving_trace) {
        const auto agg = r.fleet_trace ? r.fleet_trace->aggregate() : r.serving_trace->aggregate();
        // Served requests only: a shed request has no service latency.
        if (r.fleet_trace) {
            for (const auto& rec : r.fleet_trace->records()) {
                if (!rec.row.shed) lat_ms.push_back(rec.row.e2e_s * 1e3);
            }
        } else {
            for (const auto& rec : r.serving_trace->records()) {
                if (!rec.shed) lat_ms.push_back(rec.e2e_s * 1e3);
            }
        }
        // A shed request counts as missed (ServingSummary::missed includes it).
        m.slo_miss_frac = static_cast<double>(agg.missed) / static_cast<double>(agg.requests);
        m.peak_temp_c = r.fleet_trace ? r.fleet_trace->peak_temp_c() : agg.peak_device_temp_c;
    } else {
        lat_ms = r.trace.latencies_ms();
        const auto sum = r.trace.summary();
        m.slo_miss_frac = 1.0 - sum.satisfaction_rate;
        m.peak_temp_c = sum.max_device_temp;
    }
    m.samples = lat_ms.size();
    if (!lat_ms.empty()) {
        const auto pct = lotus::util::percentiles(lat_ms, {50.0, 95.0});
        m.p50_ms = pct[0];
        m.p95_ms = pct[1];
        lotus::util::RunningStats st;
        for (const double v : lat_ms) st.add(v);
        m.std_ms = st.stddev();
    }
    return m;
}

std::vector<std::string> check_episodes(const h::Scenario& scenario,
                                        const std::vector<h::EpisodeResult>& results) {
    std::vector<std::string> problems;
    if (results.size() != scenario.arms.size()) {
        problems.push_back("expected " + std::to_string(scenario.arms.size()) +
                           " episodes, got " + std::to_string(results.size()));
        return problems;
    }
    std::size_t expected_requests = 0;
    if (scenario.fleet || scenario.serving) {
        for (const auto& st : scenario.fleet ? scenario.fleet->streams : scenario.serving->streams) {
            expected_requests += st.requests;
        }
    }

    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        const std::string who = scenario.name + "/" + r.arm;
        std::string why;
        if (r.arm != scenario.arms[i].name) {
            why = "arm order changed";
        } else if (r.fleet_trace || r.serving_trace) {
            const auto agg =
                r.fleet_trace ? r.fleet_trace->aggregate() : r.serving_trace->aggregate();
            const std::size_t rows =
                r.fleet_trace ? r.fleet_trace->records().size() : r.serving_trace->records().size();
            if (agg.requests != expected_requests || rows != expected_requests) {
                why = "ledger holds " + std::to_string(rows) + " of " +
                      std::to_string(expected_requests) + " requests";
            } else if (agg.served + agg.shed != agg.requests || agg.missed < agg.shed) {
                why = "served/shed/missed counts do not reconcile";
            } else if (!std::isfinite(agg.p95_ms) || !std::isfinite(agg.peak_device_temp_c)) {
                why = "non-finite summary";
            }
        } else {
            const auto sum = r.trace.summary();
            if (r.trace.size() != r.config.iterations) {
                why = "trace holds " + std::to_string(r.trace.size()) + " of " +
                      std::to_string(r.config.iterations) + " iterations";
            } else if (!std::isfinite(sum.mean_latency_s) || sum.mean_latency_s <= 0.0) {
                why = "non-finite or non-positive latency";
            }
        }
        if (why.empty() && scenario.fleet.has_value() != r.is_fleet()) why = "wrong engine";
        if (!why.empty()) problems.push_back(who + ": " + why);
    }
    return problems;
}

const std::vector<std::string>& telemetry_artifacts() {
    static const std::vector<std::string> names = {
        "trace.json",    "events.jsonl", "metrics.csv", "breaches.jsonl",
        "manifest.json", "rollup.json",  "health.json",
    };
    return names;
}

std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace perfbench
