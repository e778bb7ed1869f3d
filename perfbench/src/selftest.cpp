// perfbench's own test: the traced run's governor decorator is transparent.
// A small serving config and a small fleet config each render to
// byte-identical scenario_json with and without the decorator, and the
// decorator saw every hook kind. Exit 0 on success, 1 on failure.

#include <cstdio>
#include <string>

#include "bench.hpp"
#include "harness/sinks.hpp"
#include "platform/presets.hpp"
#include "runtime/runner.hpp"
#include "workload/presets.hpp"

namespace h = lotus::harness;

namespace {

std::vector<lotus::serving::StreamSpec> streams(std::size_t n, std::size_t requests,
                                                double slo_s) {
    std::vector<lotus::serving::StreamSpec> out;
    for (std::size_t i = 0; i < n; ++i) {
        lotus::serving::StreamSpec st;
        st.name = "s";
        st.name += std::to_string(i); // (GCC 12 -Wrestrict false positive on "s" + ...)
        st.dataset = "KITTI";
        st.slo_s = slo_s;
        st.requests = requests;
        st.arrival.kind = lotus::serving::ArrivalKind::poisson;
        st.arrival.rate_hz = 1.0;
        st.arrival.phase_s = 0.3 * static_cast<double>(i);
        out.push_back(std::move(st));
    }
    return out;
}

h::Scenario small_serving() {
    const auto spec = lotus::platform::orin_nano_spec();
    const auto kind = lotus::detector::DetectorKind::faster_rcnn;
    const double constraint = lotus::workload::latency_constraint_s(spec.name, kind, "KITTI");
    h::Scenario s(lotus::runtime::static_experiment(spec, kind, "KITTI", 1, 0));
    s.name = "selftest_serving";
    lotus::serving::ServingConfig cfg(spec);
    cfg.scheduler = "edf_admit";
    cfg.pretrain_iterations = 40;
    cfg.pretrain_constraint_s = constraint;
    cfg.streams = streams(3, 15, 2.0 * constraint);
    s.serving = std::move(cfg);
    s.arms = {h::default_arm(spec), h::lotus_arm(spec)};
    return s;
}

h::Scenario small_fleet() {
    const auto spec = lotus::platform::orin_nano_spec();
    const auto kind = lotus::detector::DetectorKind::faster_rcnn;
    const double constraint = lotus::workload::latency_constraint_s(spec.name, kind, "KITTI");
    h::Scenario s(lotus::runtime::static_experiment(spec, kind, "KITTI", 1, 0));
    s.name = "selftest_fleet";
    lotus::fleet::FleetConfig cfg;
    for (int d = 0; d < 3; ++d) {
        cfg.devices.push_back(lotus::fleet::make_device("orin" + std::to_string(d), spec));
    }
    cfg.scheduler = "edf";
    cfg.router = "least_queue";
    cfg.pretrain_iterations = 40;
    cfg.pretrain_constraint_s = constraint;
    cfg.streams = streams(6, 10, 2.0 * constraint);
    s.fleet = std::move(cfg);
    s.arms = {h::default_arm(spec), h::lotus_arm(spec)};
    return s;
}

bool transparent(const h::Scenario& plain) {
    h::HarnessConfig cfg;
    cfg.jobs = 1;
    cfg.seed = 7;
    const h::ExperimentHarness harness(cfg);
    const std::string want = h::scenario_json(plain, harness.run(plain));

    perfbench::governor_stats() = {};
    const h::Scenario timed = perfbench::with_timed_governors(plain);
    const std::string got = h::scenario_json(timed, harness.run(timed));
    const auto& gs = perfbench::governor_stats();

    bool ok = true;
    if (got != want) {
        std::printf("FAIL %s: scenario_json differs with the governor decorator\n",
                    plain.name.c_str());
        ok = false;
    }
    if (gs.decide.calls == 0 || gs.learn.calls == 0 || gs.tick.calls == 0) {
        std::printf("FAIL %s: decorator missed a hook (decide %llu, learn %llu, tick %llu)\n",
                    plain.name.c_str(), static_cast<unsigned long long>(gs.decide.calls),
                    static_cast<unsigned long long>(gs.learn.calls),
                    static_cast<unsigned long long>(gs.tick.calls));
        ok = false;
    }
    if (ok) {
        std::printf("ok   %s: %zu bytes identical (decide %llu, learn %llu, tick %llu calls)\n",
                    plain.name.c_str(), want.size(),
                    static_cast<unsigned long long>(gs.decide.calls),
                    static_cast<unsigned long long>(gs.learn.calls),
                    static_cast<unsigned long long>(gs.tick.calls));
    }
    return ok;
}

} // namespace

int main() {
    const bool serving_ok = transparent(small_serving());
    const bool fleet_ok = transparent(small_fleet());
    return serving_ok && fleet_ok ? 0 : 1;
}
