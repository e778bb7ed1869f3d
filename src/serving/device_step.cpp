#include "serving/device_step.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/recorder.hpp"
#include "util/rng.hpp"
#include "workload/dataset.hpp"

namespace lotus::serving {

namespace {

/// EWMA weight of the newest service-time sample in the expected-service
/// estimate.
constexpr double kServiceEwma = 0.3;

} // namespace

void validate_streams(const std::vector<StreamSpec>& streams, const std::string& scheduler,
                      const std::string& who) {
    if (streams.empty()) throw std::invalid_argument(who + ": no streams configured");
    for (const auto& s : streams) {
        if (s.requests == 0) {
            throw std::invalid_argument(who + ": stream '" + s.name + "' emits zero requests");
        }
        if (!(s.slo_s > 0.0)) {
            throw std::invalid_argument(who + ": stream '" + s.name +
                                        "' has a non-positive or NaN SLO");
        }
        (void)workload::dataset_by_name(s.dataset); // throws on unknown dataset
    }
    (void)make_scheduler(scheduler); // throws on unknown policy
}

StepContext::StepContext(const detector::DetectorModel& model_,
                         const std::vector<StreamSpec>& streams_)
    : model(model_), streams(streams_), tel(telemetry::current()),
      rollup(tel ? &tel->rollup() : nullptr) {
    if (!tel) return;
    stream_tracks_.reserve(streams.size());
    for (const auto& s : streams) stream_tracks_.push_back(tel->track("streams", s.name));
}

void StepContext::arrive(const Request& r) const {
    if (!tel) return;
    // The span opens at the true arrival instant (possibly a hair before the
    // clock that noticed it); exporters order by timestamp, not append
    // order, so the trace stays monotonic.
    tel->async_begin(stream_tracks_[r.stream], "request", r.id, r.arrival_s,
                     "\"slo_ms\":" + telemetry::jnum(r.slo_s * 1e3));
}

ServingRecord StepContext::shed(const Request& r, double now, const std::string* device,
                                int breach_track) const {
    const double wait = std::max(0.0, now - r.arrival_s);
    const auto& stream = streams[r.stream].name;
    if (rollup) {
        rollup->record_request(device ? *device : std::string("fleet"), stream, now,
                               telemetry::Rollup::Outcome::shed, 0.0, wait * 1e3);
    }
    if (tel) {
        tel->async_end(stream_tracks_[r.stream], "request", r.id, now,
                       "\"outcome\":\"shed\",\"queued_ms\":" + telemetry::jnum(wait * 1e3));
        tel->breach(breach_track, "shed", r.id, now,
                    "\"stream\":" + telemetry::jstr(stream) +
                        ",\"slo_ms\":" + telemetry::jnum(r.slo_s * 1e3) + ",\"device\":" +
                        (device ? telemetry::jstr(*device) : std::string("null")));
    }
    ServingRecord row;
    row.request_id = r.id;
    row.stream = r.stream;
    row.arrival_s = r.arrival_s;
    row.start_s = now;
    row.queue_wait_s = wait;
    row.e2e_s = wait;
    row.slo_s = r.slo_s;
    row.shed = true;
    row.missed = true;
    row.proposals = r.frame.proposals;
    return row;
}

void StepContext::served(const ServingRecord& row, double done, const std::string& device,
                         int breach_track) const {
    const auto& stream = streams[row.stream].name;
    if (rollup) {
        rollup->record_request(device, stream, done,
                               row.missed ? telemetry::Rollup::Outcome::late
                                          : telemetry::Rollup::Outcome::ok,
                               row.e2e_s * 1e3, row.queue_wait_s * 1e3);
    }
    if (!tel) return;
    tel->async_end(stream_tracks_[row.stream], "request", row.request_id, done,
                   std::string("\"outcome\":\"") + (row.missed ? "missed" : "served") +
                       "\",\"device\":" + telemetry::jstr(device) +
                       ",\"e2e_ms\":" + telemetry::jnum(row.e2e_s * 1e3));
    if (row.missed) {
        tel->breach(breach_track, "slo_miss", row.request_id, done,
                    "\"stream\":" + telemetry::jstr(stream) +
                        ",\"e2e_ms\":" + telemetry::jnum(row.e2e_s * 1e3) +
                        ",\"slo_ms\":" + telemetry::jnum(row.slo_s * 1e3) +
                        ",\"device\":" + telemetry::jstr(device));
    }
}

DeviceStep::DeviceStep(const platform::DeviceSpec& spec,
                       const runtime::EngineConfig& engine_config,
                       const std::string& scheduler_name)
    : device(spec), engine(device, engine_config), scheduler(make_scheduler(scheduler_name)) {}

void DeviceStep::warm_up(const detector::DetectorModel& model, governors::Governor& governor,
                         std::uint64_t seed, const std::string& ns,
                         const std::string& dataset, std::size_t iterations,
                         double constraint_s) {
    // Non-learning governors need no warm-up.
    if (iterations == 0 || governor.decision_overhead_s() == 0.0) return;
    // The warm-up advances the clock and then rewinds it via reset();
    // recording it would break the trace's monotonic timeline.
    telemetry::SuspendScope no_telemetry;
    const std::string id = "pretrain/" + dataset;
    workload::FrameStream stream(workload::dataset_by_name(dataset),
                                 util::derive_seed(seed, ns.empty() ? id : ns + "/" + id, 0));
    for (std::size_t i = 0; i < iterations; ++i) {
        engine.run_frame(model, stream.next(), governor, constraint_s, i);
    }
    device.reset();
    engine.reset();
}

ServingRecord DeviceStep::shed(const StepContext& ctx, const Request& r, double now) {
    auto row = ctx.shed(r, now, &device.telemetry_label(),
                        track(ctx, platform_track_, "platform"));
    row.cpu_temp = device.cpu_temp();
    row.gpu_temp = device.gpu_temp();
    return row;
}

ServingRecord DeviceStep::serve(const StepContext& ctx, const Request& req, double now,
                                governors::Governor& governor) {
    const auto& label = device.telemetry_label();
    const auto& stream = ctx.streams[req.stream].name;
    // Admission tolerates kTimeEps of clock shortfall; never report a
    // negative wait for a request taken the instant it arrived.
    const double wait = std::max(0.0, now - req.arrival_s);
    if (ctx.tel) {
        ctx.tel->instant(track(ctx, queue_track_, "queue"), "dispatch", now,
                         "\"request_id\":" + std::to_string(req.id) +
                             ",\"stream\":" + telemetry::jstr(stream) +
                             ",\"queue_wait_ms\":" + telemetry::jnum(wait * 1e3));
    }
    const auto result =
        engine.run_frame(ctx.model, req.frame, governor, req.slo_s, frames_++, wait);

    ServingRecord row;
    row.request_id = req.id;
    row.stream = req.stream;
    row.arrival_s = req.arrival_s;
    row.start_s = result.start_time_s;
    row.queue_wait_s = wait;
    row.service_s = result.latency_s;
    row.e2e_s = result.e2e_latency_s();
    row.slo_s = req.slo_s;
    row.missed = !slo_satisfied(row.e2e_s, req.slo_s);
    row.throttled = result.throttled;
    row.proposals = result.proposals_used;
    row.cpu_temp = result.cpu_temp;
    row.gpu_temp = result.gpu_temp;
    row.energy_j = result.energy_j;

    ctx.served(row, device.now(), label,
               row.missed ? track(ctx, platform_track_, "platform") : -1);

    expected_service_s = expected_service_s <= 0.0
                             ? result.latency_s
                             : (1.0 - kServiceEwma) * expected_service_s +
                                   kServiceEwma * result.latency_s;
    return row;
}

void DeviceStep::note_depth(const StepContext& ctx, double now, std::size_t depth) {
    if (!ctx.tel || depth == last_depth_) return;
    last_depth_ = depth;
    ctx.tel->counter(track(ctx, queue_track_, "queue"), "queue_depth", now,
                     static_cast<double>(depth));
}

int DeviceStep::track(const StepContext& ctx, int& cache, const char* thread) {
    // Resolved on first use, so track ids keep the caller's first-seen order.
    if (!ctx.tel) return -1;
    if (cache < 0) cache = ctx.tel->track(device.telemetry_label(), thread);
    return cache;
}

} // namespace lotus::serving
