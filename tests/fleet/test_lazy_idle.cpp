// Lazy idling in the fleet engine: a router that reads no temperature lets
// idle devices advance only when something touches them. These tests hold
// the lazy path to the eager one (every live, empty device idled up to every
// routing instant), which a wrapper router forces by reporting
// reads_thermal(), and pin what the lazy path must still do: idle a device
// nobody routes to up to the last arrival, keep routing independent of idle
// clocks, and keep device.advance calls per request bounded.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "fleet/engine.hpp"
#include "fleet/engine_internal.hpp"
#include "fleet/router.hpp"
#include "governors/linux_governors.hpp"
#include "platform/presets.hpp"
#include "prof/profiler.hpp"
#include "serving/engine.hpp"

namespace lotus::fleet {
namespace {

/// Delegates every pick to `inner`, keeps a copy of the views it was shown,
/// and reports `reads_thermal` as given: true forces per-arrival idling.
class Probe final : public Router {
public:
    Probe(std::unique_ptr<Router> inner, bool reads_thermal,
          std::vector<std::vector<DeviceView>>* seen = nullptr)
        : inner_(std::move(inner)), reads_thermal_(reads_thermal), seen_(seen) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] bool reads_thermal() const override { return reads_thermal_; }
    [[nodiscard]] std::size_t route(const std::vector<DeviceView>& views,
                                    const serving::Request& request, double now_s) override {
        if (seen_ != nullptr) seen_->push_back(views);
        return inner_->route(views, request, now_s);
    }

private:
    std::unique_ptr<Router> inner_;
    bool reads_thermal_;
    std::vector<std::vector<DeviceView>>* seen_;
};

/// Always picks device 0 while it is available.
class PinToFirst final : public Router {
public:
    [[nodiscard]] std::string name() const override { return "pin_to_first"; }
    [[nodiscard]] bool reads_thermal() const override { return false; }
    [[nodiscard]] std::size_t route(const std::vector<DeviceView>& views,
                                    const serving::Request&, double) override {
        return views.front().available ? 0 : npos;
    }
};

/// Flips the CPU level on every 20 ms tick, so every idle span pays DVFS
/// stalls, and one that starts just before the instant the device idled to
/// carries its clock past it.
class FlipFlopGovernor final : public governors::Governor {
public:
    [[nodiscard]] std::string name() const override { return "flip_flop"; }
    [[nodiscard]] double tick_interval_s() const override { return 0.02; }
    governors::LevelRequest on_tick(const governors::TickObservation&) override {
        high_ = !high_;
        return governors::LevelRequest::set(high_ ? 5 : 4, 3);
    }

private:
    bool high_ = false;
};

FleetEngine::GovernorFactory ondemand() {
    return [](const platform::DeviceSpec&, std::uint64_t) -> std::unique_ptr<governors::Governor> {
        return std::make_unique<governors::KernelGovernor>(
            "ondemand+simple_ondemand", governors::CpuPolicyKind::ondemand,
            governors::SimpleOndemandParams{});
    };
}

FleetEngine::GovernorFactory flip_flop() {
    return [](const platform::DeviceSpec&, std::uint64_t) -> std::unique_ptr<governors::Governor> {
        return std::make_unique<FlipFlopGovernor>();
    };
}

/// `devices` Orins behind least_queue, fed 2 Poisson KITTI streams per
/// device at 0.5 req/s each (the perfbench fleet_kernel shape, scaled down).
FleetConfig pool(std::size_t devices, std::size_t requests_per_stream) {
    FleetConfig cfg;
    const auto orin = platform::orin_nano_spec();
    for (std::size_t d = 0; d < devices; ++d) {
        cfg.devices.push_back(make_device("orin" + std::to_string(d), orin));
    }
    const std::size_t streams = 2 * devices;
    for (std::size_t i = 0; i < streams; ++i) {
        serving::StreamSpec s;
        s.name = "cam" + std::to_string(i);
        s.dataset = "KITTI";
        s.slo_s = 0.9;
        s.requests = requests_per_stream;
        s.arrival.kind = serving::ArrivalKind::poisson;
        s.arrival.rate_hz = 0.5;
        s.arrival.phase_s = static_cast<double>(i) / (0.5 * static_cast<double>(streams));
        cfg.streams.push_back(std::move(s));
    }
    cfg.scheduler = "edf";
    cfg.router = "least_queue";
    cfg.seed = 5;
    return cfg;
}

FleetTrace run_with(const FleetConfig& cfg, const FleetEngine::GovernorFactory& gov,
                    bool eager, std::vector<std::vector<DeviceView>>* seen = nullptr) {
    return run_routed(FleetEngine(cfg), gov, 1,
                      std::make_unique<Probe>(make_router(cfg.router), eager, seen));
}

double rel_dev(double value, double reference) {
    return std::abs(value - reference) / std::max(std::abs(reference), 1e-12);
}

TEST(LazyIdle, RoutersDeclareWhetherTheyReadTemperature) {
    EXPECT_FALSE(make_router("round_robin")->reads_thermal());
    EXPECT_FALSE(make_router("least_queue")->reads_thermal());
    EXPECT_TRUE(make_router("thermal_aware")->reads_thermal());
    EXPECT_TRUE(make_router("lotus_fleet")->reads_thermal());
}

// Differential oracle: the lazy path against eager idling on one
// least_queue/ondemand fleet. Idle chunking moves the phase of the tick grid
// against frame starts (DVFS stalls paid while idle shift the clock), so
// frame ends differ by microseconds and near-ties in backlog swap which of
// two equivalent devices takes a request. Pool-wide metrics stay within
// 0.5% of the eager run. Per device, a swap trades frames of different
// cost, so served counts stay within one and energy within 2% (about one
// frame of the ~50 each device serves here).
TEST(LazyIdle, MatchesEagerIdlingWithinBound) {
    constexpr double kBound = 0.005;
    constexpr double kDeviceEnergyBound = 0.02;
    const auto cfg = pool(16, 25);
    const auto lazy = run_with(cfg, ondemand(), /*eager=*/false);
    const auto eager = run_with(cfg, ondemand(), /*eager=*/true);

    ASSERT_EQ(lazy.size(), eager.size());
    const auto a = lazy.aggregate();
    const auto b = eager.aggregate();
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.missed, b.missed);
    EXPECT_LE(rel_dev(a.p50_ms, b.p50_ms), kBound);
    EXPECT_LE(rel_dev(a.p95_ms, b.p95_ms), kBound);
    EXPECT_LE(rel_dev(a.mean_device_temp_c, b.mean_device_temp_c), kBound);
    EXPECT_LE(rel_dev(lazy.peak_temp_c(), eager.peak_temp_c()), kBound);
    EXPECT_LE(rel_dev(lazy.makespan_s(), eager.makespan_s()), kBound);
    EXPECT_LE(rel_dev(lazy.total_energy_j(), eager.total_energy_j()), kBound);
    for (std::size_t d = 0; d < cfg.devices.size(); ++d) {
        const auto served_lazy = static_cast<long>(lazy.device_summary(d).served);
        const auto served_eager = static_cast<long>(eager.device_summary(d).served);
        EXPECT_LE(std::abs(served_lazy - served_eager), 1L) << "device " << d;
        EXPECT_LE(rel_dev(lazy.device_stats(d).energy_j, eager.device_stats(d).energy_j),
                  kDeviceEnergyBound)
            << "device " << d;
        EXPECT_LE(rel_dev(lazy.device_stats(d).makespan_s, eager.device_stats(d).makespan_s),
                  kBound)
            << "device " << d;
    }
}

// An idle device's clock can overshoot the instant it idled to (every tick
// of this governor pays a DVFS stall, and one may run past the end of the
// span). The router must not see that overshoot: an idle, empty device has
// zero backlog, and eager and lazy runs make the same routing.
TEST(LazyIdle, IdleClockOvershootDoesNotMoveBacklog) {
    const auto cfg = pool(4, 12);
    std::vector<std::vector<DeviceView>> seen;
    const auto eager = run_with(cfg, flip_flop(), /*eager=*/true, &seen);
    const auto lazy = run_with(cfg, flip_flop(), /*eager=*/false);

    const auto requests = serving::build_request_timeline(cfg.streams, cfg.seed);
    ASSERT_EQ(seen.size(), requests.size());
    std::size_t idle_views = 0;
    for (std::size_t r = 0; r < seen.size(); ++r) {
        const double now = requests[r].arrival_s;
        for (const auto& v : seen[r]) {
            if (v.queue_depth != 0 || v.busy_until_s > now) continue;
            ++idle_views;
            EXPECT_EQ(v.backlog_s, 0.0) << "device " << v.index << " at " << now;
        }
    }
    EXPECT_GT(idle_views, 0u);
    ASSERT_EQ(lazy.size(), eager.size());
    for (std::size_t i = 0; i < lazy.size(); ++i) {
        ASSERT_EQ(lazy[i].device, eager[i].device) << "request " << lazy[i].row.request_id;
    }
}

TEST(LazyIdle, UnroutedDeviceStillIdlesToTheLastArrival) {
    const auto cfg = pool(3, 6);
    const FleetEngine engine(cfg);
    const auto trace = run_routed(engine, ondemand(), 1, std::make_unique<PinToFirst>());
    const double last_arrival =
        serving::build_request_timeline(cfg.streams, cfg.seed).back().arrival_s;

    for (std::size_t d = 1; d < cfg.devices.size(); ++d) {
        EXPECT_EQ(trace.device_summary(d).served, 0u) << "device " << d;
        const auto& stats = trace.device_stats(d);
        EXPECT_GE(stats.makespan_s, last_arrival - 1e-9) << "device " << d;
        EXPECT_GT(stats.energy_j, 0.0) << "device " << d;
        EXPECT_GT(stats.thermal_steps, 0u) << "device " << d;
    }
    // The same horizon eager idling gives it.
    const auto eager = run_routed(
        engine, ondemand(), 1, std::make_unique<Probe>(std::make_unique<PinToFirst>(), true));
    for (std::size_t d = 0; d < cfg.devices.size(); ++d) {
        // Either clock may end up to one DVFS stall (50 us) past the
        // instant it idled to.
        EXPECT_NEAR(trace.device_stats(d).makespan_s, eager.device_stats(d).makespan_s, 1e-3)
            << "device " << d;
        EXPECT_LE(rel_dev(trace.device_stats(d).energy_j, eager.device_stats(d).energy_j), 1e-3)
            << "device " << d;
    }
}

// Lazy idling makes host cost O(events), not O(devices x requests): on a
// 32-device ondemand fleet, device.advance calls per request stay bounded
// (eager idling costs ~50 here, and grows with the pool).
TEST(LazyIdle, AdvanceCallsPerRequestStayBounded) {
    if (!prof::kCompiled) GTEST_SKIP() << "profiler compiled out";
    constexpr double kMaxAdvancePerRequest = 25.0;
    const auto cfg = pool(32, 8);
    const bool was_enabled = prof::enabled();
    prof::set_enabled(true);
    prof::reset();
    const auto trace = FleetEngine(cfg).run(ondemand(), 1);
    const auto report = prof::capture();
    prof::set_enabled(was_enabled);
    prof::reset();

    std::uint64_t advances = 0;
    for (const auto& r : report.regions) {
        if (r.name == "device.advance") advances += r.calls;
    }
    ASSERT_GT(trace.size(), 0u);
    const double per_request = static_cast<double>(advances) / static_cast<double>(trace.size());
    EXPECT_GT(advances, 0u);
    EXPECT_LE(per_request, kMaxAdvancePerRequest);
}

} // namespace
} // namespace lotus::fleet
