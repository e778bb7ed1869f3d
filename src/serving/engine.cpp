#include "serving/engine.hpp"

#include <algorithm>

#include "prof/profiler.hpp"
#include "serving/device_step.hpp"
#include "telemetry/recorder.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"

namespace lotus::serving {

ServingEngine::ServingEngine(ServingConfig config) : config_(std::move(config)) {
    validate_streams(config_.streams, config_.scheduler, "ServingEngine");
}

std::uint64_t arrival_stream_seed(std::uint64_t seed, const std::string& stream_name,
                                  std::size_t index) {
    return util::derive_seed(seed, "arrivals/" + stream_name, index);
}

std::uint64_t frame_stream_seed(std::uint64_t seed, const std::string& stream_name,
                                std::size_t index) {
    return util::derive_seed(seed, "frames/" + stream_name, index);
}

std::vector<Request> build_request_timeline(const std::vector<StreamSpec>& streams,
                                            std::uint64_t seed) {
    std::vector<Request> all;
    std::size_t total = 0;
    for (const auto& stream : streams) total += stream.requests;
    all.reserve(total);
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const auto& stream = streams[s];
        const auto arrivals = generate_arrivals(
            stream.arrival, stream.requests,
            arrival_stream_seed(seed, stream.name, s));
        workload::FrameStream frames(
            workload::dataset_by_name(stream.dataset),
            frame_stream_seed(seed, stream.name, s));
        for (std::size_t k = 0; k < stream.requests; ++k) {
            Request r;
            r.stream = s;
            r.arrival_s = arrivals[k];
            r.slo_s = stream.slo_s;
            r.frame = frames.next();
            all.push_back(std::move(r));
        }
    }
    // Merge the per-stream timelines; ids are global arrival order so every
    // scheduler tie-break is a pure function of the timeline.
    std::sort(all.begin(), all.end(), [](const Request& a, const Request& b) {
        if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
        if (a.stream != b.stream) return a.stream < b.stream;
        return a.frame.index < b.frame.index;
    });
    for (std::size_t i = 0; i < all.size(); ++i) all[i].id = i;
    trace::maybe_record(streams, all);
    return all;
}

std::vector<Request> ServingEngine::build_requests() const {
    if (!config_.replay_trace.empty()) {
        return trace::load_requests(config_.replay_trace, config_.streams);
    }
    return build_request_timeline(config_.streams, config_.seed);
}

ServingTrace ServingEngine::run(governors::Governor& governor) const {
    LOTUS_PROF_SCOPE("serving.run");
    const auto model = detector::make_detector(config_.detector);
    DeviceStep step(config_.device_spec, config_.engine, config_.scheduler);
    step.device.set_ambient(config_.ambient_celsius);
    const auto& warm = config_.streams.front();
    step.warm_up(model, governor, config_.seed, "", warm.dataset,
                 config_.pretrain_iterations,
                 config_.pretrain_constraint_s > 0.0 ? config_.pretrain_constraint_s
                                                     : warm.slo_s);

    const auto requests = build_requests();
    std::vector<std::string> names;
    names.reserve(config_.streams.size());
    for (const auto& s : config_.streams) names.push_back(s.name);
    ServingTrace trace(std::move(names), config_.capture_rows);
    trace.reserve(requests.size());

    // The device's platform and queue tracks come first, then one request
    // span track per stream.
    if (auto* tel = telemetry::current()) {
        const auto& label = step.device.telemetry_label();
        tel->set_context(label);
        (void)tel->track(label, "platform");
        (void)tel->track(label, "queue");
    }
    const StepContext ctx(model, config_.streams);

    std::size_t next_arrival = 0;
    while (next_arrival < requests.size() || !step.queue.empty()) {
        const double now = step.device.now();
        while (next_arrival < requests.size() &&
               requests[next_arrival].arrival_s <= now + kTimeEps) {
            ctx.arrive(requests[next_arrival]);
            step.queue.push(requests[next_arrival++]);
        }
        step.note_depth(ctx, now, step.queue.size());
        if (step.queue.empty()) {
            // Device is free but no request is pending: idle (and cool)
            // until the next arrival.
            step.engine.run_idle(std::max(requests[next_arrival].arrival_s - now, kTimeEps),
                                 governor);
            continue;
        }

        auto decision = step.pick(now);
        for (const auto& r : decision.shed) trace.add(step.shed(ctx, r, now));
        step.note_depth(ctx, now, step.queue.size());
        if (!decision.next) continue;
        LOTUS_PROF_SCOPE("serving.dispatch");
        LOTUS_PROF_COUNT("serving.requests", 1);
        trace.add(step.serve(ctx, *decision.next, now, governor));
    }

    trace.set_makespan(step.device.now());
    trace.set_total_energy(step.device.energy_joules());
    trace.set_max_queue_depth(step.queue.max_depth());
    trace.set_thermal_steps(step.device.thermal_steps());
    return trace;
}

} // namespace lotus::serving
