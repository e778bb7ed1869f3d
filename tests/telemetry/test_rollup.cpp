// Rollup contract tests: window assignment and count identities, pro-rata
// span splitting across window boundaries, the merged-window-sketches ==
// whole-run-sketch identity that health.json is built on, and the recorder
// integration (every recorder carries a rollup with well-formed exports).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "telemetry/recorder.hpp"
#include "telemetry/rollup.hpp"
#include "telemetry/sketch.hpp"

namespace lotus::telemetry {
namespace {

using Outcome = Rollup::Outcome;

TEST(Rollup, RejectsNonPositiveWindow) {
    EXPECT_THROW(Rollup(0.0), std::invalid_argument);
    EXPECT_THROW(Rollup(-1.0), std::invalid_argument);
}

TEST(Rollup, RequestsLandInTheirCompletionWindow) {
    Rollup r(1.0);
    r.record_request("dev", "cam0", 0.2, Outcome::ok, 50.0, 5.0);
    r.record_request("dev", "cam0", 0.9, Outcome::late, 120.0, 30.0);
    r.record_request("dev", "cam0", 1.1, Outcome::shed, 0.0, 80.0);
    const auto& series = r.streams().at("dev").at("cam0");
    ASSERT_EQ(series.size(), 2u);
    const auto& w0 = series.at(0);
    EXPECT_EQ(w0.ok, 1u);
    EXPECT_EQ(w0.late, 1u);
    EXPECT_EQ(w0.shed, 0u);
    // e2e holds completions only; queue wait holds every outcome.
    EXPECT_EQ(w0.e2e_ms.count(), 2u);
    EXPECT_EQ(w0.queue_wait_ms.count(), 2u);
    const auto& w1 = series.at(1);
    EXPECT_EQ(w1.shed, 1u);
    EXPECT_EQ(w1.e2e_ms.count(), 0u);
    EXPECT_EQ(w1.queue_wait_ms.count(), 1u);
}

TEST(Rollup, SpanSplitsProRataAcrossWindows) {
    Rollup r(1.0);
    // 2.5 s span at level 3, throttled, 10 J: windows get 0.5 / 1.0 / 1.0
    // of the duration and the same fractions of the energy.
    r.record_device_span("dev", 0.5, 3.0, 3, true, 10.0);
    const auto& series = r.devices().at("dev");
    ASSERT_EQ(series.size(), 3u);
    EXPECT_NEAR(series.at(0).opp_residency_s.at(3), 0.5, 1e-12);
    EXPECT_NEAR(series.at(1).opp_residency_s.at(3), 1.0, 1e-12);
    EXPECT_NEAR(series.at(2).opp_residency_s.at(3), 1.0, 1e-12);
    EXPECT_NEAR(series.at(0).throttle_s, 0.5, 1e-12);
    EXPECT_NEAR(series.at(0).energy_j, 10.0 * 0.5 / 2.5, 1e-12);
    EXPECT_NEAR(series.at(1).energy_j, 10.0 * 1.0 / 2.5, 1e-12);
    double total_energy = 0.0;
    for (const auto& [id, win] : series) total_energy += win.energy_j;
    EXPECT_NEAR(total_energy, 10.0, 1e-12);
}

TEST(Rollup, EmptySpanIsANoOp) {
    Rollup r(1.0);
    r.record_device_span("dev", 2.0, 2.0, 0, false, 5.0);
    EXPECT_TRUE(r.devices().empty());
}

TEST(Rollup, TempSamplesTrackHeadroomMinimum) {
    Rollup r(0.5);
    r.record_temp_sample("dev", 0.1, 45.0, 30.0);
    r.record_temp_sample("dev", 0.2, 55.0, 20.0);
    r.record_temp_sample("dev", 0.7, 60.0, 15.0);
    const auto& series = r.devices().at("dev");
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series.at(0).temp_c.count(), 2u);
    EXPECT_EQ(series.at(0).headroom_min_c, 20.0);
    EXPECT_EQ(series.at(1).headroom_min_c, 15.0);
    EXPECT_EQ(series.at(0).temp_c.max(), 55.0);
}

// The identity health.json relies on: merging the per-window sketches in
// export order reproduces a single sketch fed every sample of the run.
TEST(Rollup, MergedWindowSketchesEqualWholeRunSketch) {
    Rollup r(0.25);
    HistSketch whole;
    double t = 0.0;
    for (int i = 0; i < 500; ++i) {
        t += 0.01 + 0.001 * (i % 7);
        const double e2e = 20.0 + 17.0 * ((i * i) % 13);
        const bool late = (i % 11) == 0;
        r.record_request("dev", "cam", t, late ? Outcome::late : Outcome::ok, e2e,
                         1.0 + (i % 5));
        whole.add(e2e);
    }
    HistSketch merged;
    for (const auto& [id, win] : r.streams().at("dev").at("cam")) {
        merged.merge(win.e2e_ms);
    }
    EXPECT_TRUE(merged == whole);
    EXPECT_EQ(merged.json(), whole.json());
}

TEST(Rollup, HealthJsonAggregatesMatchWindowTotals) {
    Rollup r(1.0);
    r.record_request("a", "cam0", 0.5, Outcome::ok, 40.0, 2.0);
    r.record_request("a", "cam0", 1.5, Outcome::shed, 0.0, 90.0);
    r.record_request("b", "cam1", 0.7, Outcome::late, 200.0, 60.0);
    const std::string health = r.health_json({{"a", 1}, {"b", 2}});
    // Fleet row: 3 requests, 2 served, 1 shed, 2 missed, 3 breaches.
    EXPECT_NE(health.find("\"requests\":3"), std::string::npos) << health;
    EXPECT_NE(health.find("\"served\":2"), std::string::npos) << health;
    EXPECT_NE(health.find("\"shed\":1"), std::string::npos) << health;
    EXPECT_NE(health.find("\"missed\":2"), std::string::npos) << health;
    EXPECT_NE(health.find("\"breaches\":3"), std::string::npos) << health;
}

TEST(Rollup, UnmatchedBreachProcessesCountTowardFleet) {
    Rollup r(1.0);
    r.record_request("a", "cam0", 0.5, Outcome::ok, 40.0, 2.0);
    // "router" has no rollup rows; its breaches must still reach the fleet
    // row rather than vanish.
    const std::string health = r.health_json({{"router", 4}});
    EXPECT_NE(health.find("\"breaches\":4"), std::string::npos) << health;
}

// --- recorder integration ---------------------------------------------------

TEST(Recorder, RollupsOnByDefault) {
    Recorder rec;
    EXPECT_EQ(rec.rollup().window_s(), 1.0);
    // Exports are well-formed even with nothing recorded.
    EXPECT_NE(rec.rollup_json().find("\"schema_version\""), std::string::npos);
    EXPECT_NE(rec.health_json().find("\"fleet\""), std::string::npos);
}

} // namespace
} // namespace lotus::telemetry
