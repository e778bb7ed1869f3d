#pragma once
// ServingEngine: multiplexes N request streams onto one simulated device.
//
// The serving analogue of runtime::ExperimentRunner. One run materialises
// every stream's arrival times and frame samples up front (pure functions of
// the config seed), then replays the merged request timeline against a
// single EdgeDevice + InferenceEngine under the chosen scheduling policy:
//
//  * the device is the shared resource -- thermal state carries across
//    interleaved streams, so a burst on stream 3 heats the silicon that
//    stream 0's next frame runs on;
//  * queue wait counts against each request's deadline: the governor's
//    observations and reward see *end-to-end* (queue + inference) latency,
//    so a learning governor experiences queueing pressure as deadline
//    pressure (InferenceEngine::run_frame's queue_wait_s plumbing);
//  * idle gaps are simulated, not skipped -- they are when the device cools
//    and timer-driven governors keep ticking;
//  * shed requests (admission control) count as SLO violations.
//
// The device side of each scheduling step (pick, shed rows, the frame and
// its served row, their telemetry) is serving::DeviceStep, shared with the
// fleet engine; this engine adds the arrival loop in front of it.
//
// run() is const and reentrant: every call builds its own device, engine,
// streams and scheduler, so harness episodes execute from concurrent
// threads, one governor per thread, byte-identically to a serial run.

#include "governors/governor.hpp"
#include "serving/request.hpp"
#include "serving/trace.hpp"

namespace lotus::serving {

/// Materialise the merged, arrival-ordered request timeline of a stream set:
/// per-stream arrival times and frame samples are pure functions of
/// (seed, stream name, stream index), then the per-stream timelines merge
/// with deterministic tie-breaks and ids in global arrival order.
[[nodiscard]] std::vector<Request> build_request_timeline(
    const std::vector<StreamSpec>& streams, std::uint64_t seed);

/// The derive_seed inputs build_request_timeline uses for stream `index`'s
/// arrival process / frame stream. Exported so trace synthesis
/// (trace::synth_trace) can reproduce a timeline stream-by-stream without
/// materialising it.
[[nodiscard]] std::uint64_t arrival_stream_seed(std::uint64_t seed,
                                                const std::string& stream_name,
                                                std::size_t index);
[[nodiscard]] std::uint64_t frame_stream_seed(std::uint64_t seed,
                                              const std::string& stream_name,
                                              std::size_t index);

class ServingEngine {
public:
    /// Validates the streams and scheduler (see validate_streams).
    explicit ServingEngine(ServingConfig config);

    /// Serve every stream's requests to completion under the governor.
    [[nodiscard]] ServingTrace run(governors::Governor& governor) const;

    /// The merged, arrival-ordered request timeline this config generates
    /// (exposed for tests and load inspection).
    [[nodiscard]] std::vector<Request> build_requests() const;

    [[nodiscard]] const ServingConfig& config() const noexcept { return config_; }

private:
    ServingConfig config_;
};

} // namespace lotus::serving
