// Tests for the RC thermal network and the trip-clamp throttler.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "platform/thermal.hpp"
#include "platform/throttle.hpp"

namespace lotus::platform {
namespace {

ThermalParams default_params() {
    return ThermalParams{};
}

TEST(ThermalNetwork, Validation) {
    auto p = default_params();
    p.capacity[0] = 0.0;
    EXPECT_THROW(ThermalNetwork{p}, std::invalid_argument);
    p = default_params();
    p.g_to_board[1] = -0.1;
    EXPECT_THROW(ThermalNetwork{p}, std::invalid_argument);
    p = default_params();
    p.max_dt = 0.0;
    EXPECT_THROW(ThermalNetwork{p}, std::invalid_argument);
}

TEST(ThermalNetwork, NoPowerStaysAtAmbient) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    net.step(100.0, {0, 0, 0}, 25.0);
    for (const double t : net.temperatures()) EXPECT_NEAR(t, 25.0, 1e-9);
}

TEST(ThermalNetwork, HeatsMonotonicallyUnderConstantPower) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    double prev = 25.0;
    for (int i = 0; i < 50; ++i) {
        net.step(1.0, {2.0, 8.0, 0.0}, 25.0);
        const double t = net.temperature(ThermalNode::gpu);
        ASSERT_GE(t, prev - 1e-9);
        prev = t;
    }
    EXPECT_GT(prev, 30.0);
}

TEST(ThermalNetwork, ConvergesToClosedFormSteadyState) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 8.0, 0.0};
    const auto expected = net.steady_state(power, 25.0);
    for (int i = 0; i < 500; ++i) net.step(10.0, power, 25.0);
    EXPECT_NEAR(net.temperature(ThermalNode::cpu), expected[0], 0.05);
    EXPECT_NEAR(net.temperature(ThermalNode::gpu), expected[1], 0.05);
    EXPECT_NEAR(net.temperature(ThermalNode::board), expected[2], 0.05);
}

TEST(ThermalNetwork, SteadyStateOrdering) {
    ThermalNetwork net(default_params());
    const auto ss = net.steady_state({1.0, 10.0, 0.0}, 25.0);
    // The hot die sits above the board, the board above ambient.
    EXPECT_GT(ss[1], ss[2]);
    EXPECT_GT(ss[2], 25.0);
    // More power -> hotter everywhere.
    const auto ss2 = net.steady_state({1.0, 14.0, 0.0}, 25.0);
    EXPECT_GT(ss2[1], ss[1]);
    EXPECT_GT(ss2[2], ss[2]);
}

TEST(ThermalNetwork, CpuGpuCoupledThroughBoard) {
    // Heating only the GPU must raise the CPU temperature too (Sec. 3
    // "thermal coupling among processors").
    ThermalNetwork net(default_params());
    net.reset(25.0);
    for (int i = 0; i < 300; ++i) net.step(5.0, {0.0, 10.0, 0.0}, 25.0);
    EXPECT_GT(net.temperature(ThermalNode::cpu), 35.0);
}

TEST(ThermalNetwork, CoolsWhenPowerRemoved) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    for (int i = 0; i < 100; ++i) net.step(5.0, {3.0, 12.0, 0.0}, 25.0);
    const double hot = net.temperature(ThermalNode::gpu);
    for (int i = 0; i < 100; ++i) net.step(5.0, {0.0, 0.0, 0.0}, 25.0);
    EXPECT_LT(net.temperature(ThermalNode::gpu), hot);
}

TEST(ThermalNetwork, AmbientShiftsEquilibrium) {
    ThermalNetwork net(default_params());
    const auto warm = net.steady_state({2.0, 8.0, 0.0}, 25.0);
    const auto cold = net.steady_state({2.0, 8.0, 0.0}, 0.0);
    EXPECT_NEAR(warm[1] - cold[1], 25.0, 0.5); // linear system: pure offset
}

TEST(ThermalNetwork, NegativeDtThrows) {
    ThermalNetwork net(default_params());
    EXPECT_THROW(net.step(-1.0, {0, 0, 0}, 25.0), std::invalid_argument);
}

TEST(ThermalNetwork, SubstepIndependence) {
    // Integrating 10 s in one call or in 100 calls must agree closely.
    ThermalNetwork a(default_params());
    ThermalNetwork b(default_params());
    a.reset(25.0);
    b.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 9.0, 0.0};
    a.step(10.0, power, 25.0);
    for (int i = 0; i < 100; ++i) b.step(0.1, power, 25.0);
    EXPECT_NEAR(a.temperature(ThermalNode::gpu), b.temperature(ThermalNode::gpu), 1e-6);
}

// ---------------------------------------------------------------------------
// Closed-form exponential stepper: advance_bounded, the device's integrator.
// A drift bound of +infinity takes the whole step.
// ---------------------------------------------------------------------------

constexpr double kWholeStep = std::numeric_limits<double>::infinity();

TEST(ThermalNetworkExact, MatchesEulerReference) {
    ThermalNetwork euler(default_params());
    ThermalNetwork exact(default_params());
    euler.reset(25.0);
    exact.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 8.0, 0.0};
    euler.step(10.0, power, 25.0); // 2000 Euler sub-steps
    EXPECT_EQ(exact.advance_bounded(10.0, power, 25.0, kWholeStep), 10.0); // ONE step
    EXPECT_EQ(exact.steps(), 1u);
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        EXPECT_NEAR(exact.temperatures()[i], euler.temperatures()[i], 5e-3);
    }
}

TEST(ThermalNetworkExact, IsTimeAdditive) {
    // The exact solution forms a semigroup: stepping 3 s then 7 s equals one
    // 10 s step to machine precision -- the property Euler only approximates.
    ThermalNetwork a(default_params());
    ThermalNetwork b(default_params());
    a.reset(25.0);
    b.reset(25.0);
    const std::array<double, kNumThermalNodes> power{3.0, 12.0, 0.0};
    a.advance_bounded(3.0, power, 25.0, kWholeStep);
    a.advance_bounded(7.0, power, 25.0, kWholeStep);
    b.advance_bounded(10.0, power, 25.0, kWholeStep);
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        EXPECT_NEAR(a.temperatures()[i], b.temperatures()[i], 1e-9);
    }
}

TEST(ThermalNetworkExact, ConvergesToSteadyStateInOneStep) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 8.0, 0.0};
    const auto expected = net.steady_state(power, 25.0);
    net.advance_bounded(1e6, power, 25.0, kWholeStep);
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        EXPECT_NEAR(net.temperatures()[i], expected[i], 1e-9);
    }
}

TEST(ThermalNetworkExact, DriftBoundIsHonored) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    const std::array<double, kNumThermalNodes> power{3.0, 12.0, 0.0};
    // Walk towards steady state in bound-sized steps; no step may drift any
    // node more than the requested delta. A step that takes the whole span
    // means no node can drift that far any more.
    constexpr double kSpan = 1e6;
    int bounded = 0;
    for (int i = 0; i < 50; ++i) {
        const auto before = net.temperatures();
        const double h = net.advance_bounded(kSpan, power, 25.0, 0.5);
        ASSERT_GT(h, 0.0);
        for (std::size_t n = 0; n < kNumThermalNodes; ++n) {
            EXPECT_LE(std::abs(net.temperatures()[n] - before[n]), 0.5 + 1e-9);
        }
        if (h == kSpan) break;
        ++bounded;
    }
    EXPECT_GT(bounded, 1) << "a cold start under load must be cut short";
}

TEST(ThermalNetworkExact, DriftBoundInfiniteAtSteadyState) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 8.0, 0.0};
    net.advance_bounded(1e9, power, 25.0, kWholeStep);
    EXPECT_EQ(net.advance_bounded(1e9, power, 25.0, 0.25), 1e9);
}

TEST(ThermalNetworkExact, StepCounters) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    EXPECT_EQ(net.steps(), 0u);
    net.step(1.0, {1, 1, 0}, 25.0); // 200 Euler sub-steps at max_dt = 5 ms
    EXPECT_EQ(net.steps(), 200u);
    net.advance_bounded(1.0, {1, 1, 0}, 25.0, kWholeStep);
    EXPECT_EQ(net.steps(), 201u);
    EXPECT_EQ(net.advance_bounded(0.0, {1, 1, 0}, 25.0, 0.25), 0.0);
    EXPECT_EQ(net.steps(), 201u);
    net.reset(25.0);
    EXPECT_EQ(net.steps(), 0u);
}

TEST(ThermalNetworkExact, RejectsNegativeSpanAndNonPositiveDelta) {
    ThermalNetwork net(default_params());
    EXPECT_THROW(net.advance_bounded(-1.0, {1, 1, 0}, 25.0, 0.25), std::invalid_argument);
    EXPECT_THROW(net.advance_bounded(1.0, {1, 1, 0}, 25.0, 0.0), std::invalid_argument);
}

TEST(ThermalNetworkExact, IsolatedNetworkFallsBackToEuler) {
    // Without any path to ambient the system is singular (no steady state);
    // advance_bounded must fall back to Euler over the whole span instead of
    // dividing by zero.
    auto p = default_params();
    p.g_to_ambient = {0.0, 0.0, 0.0};
    ThermalNetwork net(p);
    net.reset(25.0);
    EXPECT_EQ(net.advance_bounded(1.0, {1.0, 1.0, 0.0}, 25.0, 0.25), 1.0);
    for (const double t : net.temperatures()) {
        EXPECT_TRUE(std::isfinite(t));
        EXPECT_GT(t, 25.0); // heat with nowhere to go accumulates
    }
    EXPECT_EQ(net.steps(), 200u); // Euler sub-step count, not 1
}

// ---------------------------------------------------------------------------
// Throttler.
// ---------------------------------------------------------------------------

ThrottleParams throttle_params() {
    ThrottleParams p;
    p.trip_celsius = 85.0;
    p.hysteresis_k = 4.0;
    p.poll_interval_s = 0.1;
    p.clamp_level = 1;
    p.num_levels = 6;
    return p;
}

TEST(ThermalThrottler, Validation) {
    auto p = throttle_params();
    p.num_levels = 0;
    EXPECT_THROW(ThermalThrottler{p}, std::invalid_argument);
    p = throttle_params();
    p.clamp_level = 6;
    EXPECT_THROW(ThermalThrottler{p}, std::invalid_argument);
    p = throttle_params();
    p.poll_interval_s = 0.0;
    EXPECT_THROW(ThermalThrottler{p}, std::invalid_argument);
    p = throttle_params();
    p.hysteresis_k = -1.0;
    EXPECT_THROW(ThermalThrottler{p}, std::invalid_argument);
}

TEST(ThermalThrottler, StartsUncapped) {
    ThermalThrottler t(throttle_params());
    EXPECT_EQ(t.cap(), 5u);
    EXPECT_FALSE(t.engaged());
    EXPECT_EQ(t.trip_events(), 0u);
}

TEST(ThermalThrottler, ColdNeverEngages) {
    ThermalThrottler t(throttle_params());
    for (int i = 1; i <= 100; ++i) t.update(i * 0.1, 60.0);
    EXPECT_FALSE(t.engaged());
}

TEST(ThermalThrottler, TripClampsImmediatelyToLowLevel) {
    // "thermal throttling will be activated to decrease the frequency to a
    // very low level" (Sec. 1).
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    EXPECT_EQ(t.cap(), 1u);
    EXPECT_TRUE(t.engaged());
    EXPECT_EQ(t.trip_events(), 1u);
}

TEST(ThermalThrottler, HoldsInsideHysteresisBand) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    // 83 C is inside (81, 85): the clamp must hold.
    for (int i = 2; i <= 50; ++i) t.update(i * 0.1, 83.0);
    EXPECT_EQ(t.cap(), 1u);
}

TEST(ThermalThrottler, ReleasesGraduallyBelowHysteresis) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    ASSERT_EQ(t.cap(), 1u);
    t.update(0.2, 80.0); // below 85-4=81
    EXPECT_EQ(t.cap(), 2u);
    t.update(0.3, 80.0);
    EXPECT_EQ(t.cap(), 3u);
    t.update(0.4, 80.0);
    t.update(0.5, 80.0);
    EXPECT_EQ(t.cap(), 5u);
    EXPECT_FALSE(t.engaged());
}

TEST(ThermalThrottler, CountsDistinctTripEvents) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0); // trip 1
    t.update(0.2, 86.0); // still hot: same event
    EXPECT_EQ(t.trip_events(), 1u);
    for (int i = 3; i <= 7; ++i) t.update(i * 0.1, 79.0); // recover fully
    t.update(0.8, 86.0); // trip 2
    EXPECT_EQ(t.trip_events(), 2u);
}

TEST(ThermalThrottler, PollingRateLimits) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    // Recovery checks are also paced by the poll interval.
    t.update(0.15, 70.0); // only 50 ms later: no poll yet
    EXPECT_EQ(t.cap(), 1u);
    t.update(0.21, 70.0);
    EXPECT_EQ(t.cap(), 2u);
}

TEST(ThermalThrottler, LongJumpAppliesMultiplePolls) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    ASSERT_EQ(t.cap(), 1u);
    // A 1-second jump while cool applies ~10 release steps.
    t.update(1.2, 75.0);
    EXPECT_EQ(t.cap(), 5u);
}

TEST(ThermalThrottler, ResetRestoresFullLadder) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 90.0);
    t.reset();
    EXPECT_EQ(t.cap(), 5u);
    EXPECT_EQ(t.trip_events(), 0u);
    EXPECT_FALSE(t.engaged());
}

} // namespace
} // namespace lotus::platform
