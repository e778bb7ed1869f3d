#pragma once
// DeviceStep: the per-device dispatch step shared by serving::ServingEngine
// and fleet::FleetEngine.
//
// LOTUS runs one loop per device: the governor picks CPU/GPU levels, the
// device runs the frame and heats up, and the latency and temperature feed
// the reward. Both engines run exactly that loop; they differ only in where
// requests come from (the serving engine's arrival loop, the fleet's
// router). A DeviceStep owns one device's side of it -- the device, its
// inference engine, its scheduler and queue, the expected-service EWMA and
// the frame counter -- and produces the ledger rows of one scheduling step
// together with their rollup and telemetry events. Callers add each
// returned row to their own ledger.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detector/model.hpp"
#include "governors/governor.hpp"
#include "platform/device.hpp"
#include "runtime/engine.hpp"
#include "serving/queue.hpp"
#include "serving/request.hpp"
#include "serving/scheduler.hpp"
#include "serving/trace.hpp"

namespace lotus::telemetry {
class Recorder;
class Rollup;
} // namespace lotus::telemetry

namespace lotus::serving {

/// Tolerance when comparing a simulated clock against an arrival or routing
/// instant: the idle integrator sums slices, so a clock can land a few ulps
/// short of the instant it targeted. Guarantees the event loops always make
/// progress.
inline constexpr double kTimeEps = 1e-9;

/// Throws std::invalid_argument (message prefixed with `who`) on an empty
/// stream set, a stream that emits nothing, an SLO that is not a positive
/// number, an unknown dataset or an unknown scheduling policy.
void validate_streams(const std::vector<StreamSpec>& streams, const std::string& scheduler,
                      const std::string& who);

/// What every device step of one run shares: the detector, the stream table
/// and the telemetry sinks of the request lifecycle. Construct it after any
/// tracks the caller wants numbered first -- it creates one span track per
/// stream (Recorder track ids follow first-seen order).
class StepContext {
public:
    StepContext(const detector::DetectorModel& model, const std::vector<StreamSpec>& streams);

    /// Open the request's lifecycle span at its arrival instant.
    void arrive(const Request& r) const;

    /// Rollup and telemetry for `r` shed at `now`, then its ledger row.
    /// `device` names the device that shed it (a `"device"` event argument
    /// and the rollup process); nullptr marks a dispatcher-level shed, rolled
    /// up under the "fleet" pseudo-device. The breach lands on
    /// `breach_track`.
    [[nodiscard]] ServingRecord shed(const Request& r, double now, const std::string* device,
                                     int breach_track) const;

    /// Rollup and telemetry for a served `row` that completed at `done` on
    /// `device`; an SLO miss breaches on `breach_track`.
    void served(const ServingRecord& row, double done, const std::string& device,
                int breach_track) const;

    const detector::DetectorModel& model;
    const std::vector<StreamSpec>& streams;
    telemetry::Recorder* const tel;
    telemetry::Rollup* const rollup;

private:
    std::vector<int> stream_tracks_;
};

class DeviceStep {
public:
    DeviceStep(const platform::DeviceSpec& spec, const runtime::EngineConfig& engine_config,
               const std::string& scheduler_name);
    DeviceStep(const DeviceStep&) = delete;
    DeviceStep& operator=(const DeviceStep&) = delete;

    /// Unrecorded warm-up: `iterations` frames of `dataset` at latency
    /// constraint `constraint_s`, then a cold restart of the device and
    /// engine (the governor keeps what it learned). The frames draw from
    /// derive_seed(seed, "<ns>/pretrain/<dataset>"), or "pretrain/<dataset>"
    /// when `ns` is empty. Non-learning governors skip it.
    void warm_up(const detector::DetectorModel& model, governors::Governor& governor,
                 std::uint64_t seed, const std::string& ns, const std::string& dataset,
                 std::size_t iterations, double constraint_s);

    /// One scheduler pick at `now` against the expected-service estimate.
    /// Turn each shed request into its row with shed().
    [[nodiscard]] ScheduleDecision pick(double now) {
        return scheduler->pick(queue, now, expected_service_s);
    }

    /// Ledger row (with rollup and telemetry) of `r` shed by this device.
    [[nodiscard]] ServingRecord shed(const StepContext& ctx, const Request& r, double now);

    /// Run `req`'s frame, dispatched at `now`, under `governor`; returns its
    /// served row (with rollup and telemetry) and updates the EWMA.
    [[nodiscard]] ServingRecord serve(const StepContext& ctx, const Request& req, double now,
                                      governors::Governor& governor);

    /// Emit a queue_depth counter sample when `depth` changed.
    void note_depth(const StepContext& ctx, double now, std::size_t depth);

    platform::EdgeDevice device;
    runtime::InferenceEngine engine;
    std::unique_ptr<Scheduler> scheduler;
    RequestQueue queue;
    /// EWMA of recent execution latencies; the caller may set a prior.
    double expected_service_s = 0.0;

private:
    int track(const StepContext& ctx, int& cache, const char* thread);

    std::size_t frames_ = 0;

    int platform_track_ = -1;
    int queue_track_ = -1;
    std::size_t last_depth_ = static_cast<std::size_t>(-1);
};

} // namespace lotus::serving
