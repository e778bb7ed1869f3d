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

#include <functional>

#include "governors/governor.hpp"
#include "serving/request.hpp"
#include "serving/trace.hpp"

namespace lotus::serving {

/// Pulls one source's requests in timeline order: fills every field of the
/// next request but its id, or returns false once the source is exhausted.
using RequestSource = std::function<bool(Request&)>;
/// Receives a merged timeline one request at a time.
using RequestSink = std::function<void(const Request&)>;

/// The one definition of timeline order. Streams the heads of `sources`
/// (each already in timeline order) into `sink` earliest first by
/// (arrival_s, stream, frame.index), lower source index on a full tie,
/// with ids renumbered 0..n-1 in that order. A binary heap keeps it
/// O(log sources) per request and O(sources) memory, so generated,
/// synthesised and merged timelines all go through it.
void merge_timeline(std::vector<RequestSource> sources, const RequestSink& sink);

/// One generating source per stream: stream s draws its arrival times and
/// frame samples from an ArrivalGenerator and a FrameStream seeded from
/// (seed, stream name, s), so every stream is a pure function of the seed.
/// Validates each stream's arrival spec and dataset (throws
/// std::invalid_argument) before any request is drawn.
[[nodiscard]] std::vector<RequestSource> stream_sources(const std::vector<StreamSpec>& streams,
                                                        std::uint64_t seed);

/// The merged request timeline of a stream set, materialised:
/// merge_timeline over stream_sources.
[[nodiscard]] std::vector<Request> build_request_timeline(
    const std::vector<StreamSpec>& streams, std::uint64_t seed);

/// The timeline an engine serves: the trace recorded at `replay_trace`
/// (checked against `streams`) when set, else
/// build_request_timeline(streams, seed). The one trace capture hook: under
/// a trace::CaptureScope the timeline is written to the scope's path, so
/// recording a replay reproduces its input trace.
[[nodiscard]] std::vector<Request> replay_or_generate(const std::vector<StreamSpec>& streams,
                                                      std::uint64_t seed,
                                                      const std::string& replay_trace);

class ServingEngine {
public:
    /// Validates the streams and scheduler (see validate_streams).
    explicit ServingEngine(ServingConfig config);

    /// Serve every stream's requests to completion under the governor.
    [[nodiscard]] ServingTrace run(governors::Governor& governor) const;

    [[nodiscard]] const ServingConfig& config() const noexcept { return config_; }

private:
    ServingConfig config_;
};

} // namespace lotus::serving
