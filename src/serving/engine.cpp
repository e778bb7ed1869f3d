#include "serving/engine.hpp"

#include <algorithm>
#include <tuple>

#include "prof/profiler.hpp"
#include "serving/device_step.hpp"
#include "telemetry/recorder.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"
#include "workload/dataset.hpp"

namespace lotus::serving {

ServingEngine::ServingEngine(ServingConfig config) : config_(std::move(config)) {
    validate_streams(config_.streams, config_.scheduler, "ServingEngine");
}

void merge_timeline(std::vector<RequestSource> sources, const RequestSink& sink) {
    std::vector<Request> heads(sources.size());
    std::vector<std::size_t> heap;
    heap.reserve(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
        if (sources[i](heads[i])) heap.push_back(i);
    }
    // The std heap keeps its greatest element on top, so the heap orders by
    // "later in the timeline" to surface the earliest head.
    const auto later = [&heads](std::size_t a, std::size_t b) {
        const Request& x = heads[a];
        const Request& y = heads[b];
        return std::tie(y.arrival_s, y.stream, y.frame.index, b) <
               std::tie(x.arrival_s, x.stream, x.frame.index, a);
    };
    std::make_heap(heap.begin(), heap.end(), later);
    for (std::size_t id = 0; !heap.empty(); ++id) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const std::size_t i = heap.back();
        heads[i].id = id;
        sink(heads[i]);
        if (sources[i](heads[i])) {
            std::push_heap(heap.begin(), heap.end(), later);
        } else {
            heap.pop_back();
        }
    }
}

std::vector<RequestSource> stream_sources(const std::vector<StreamSpec>& streams,
                                          std::uint64_t seed) {
    std::vector<RequestSource> sources;
    sources.reserve(streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const auto& stream = streams[s];
        sources.emplace_back(
            [s, slo_s = stream.slo_s,
             arrivals = ArrivalGenerator(stream.arrival, stream.requests,
                                         util::derive_seed(seed, "arrivals/" + stream.name, s)),
             frames = workload::FrameStream(
                 workload::dataset_by_name(stream.dataset),
                 util::derive_seed(seed, "frames/" + stream.name, s))](Request& r) mutable {
                if (arrivals.done()) return false;
                r.stream = s;
                r.arrival_s = arrivals.next();
                r.slo_s = slo_s;
                r.frame = frames.next();
                return true;
            });
    }
    return sources;
}

std::vector<Request> build_request_timeline(const std::vector<StreamSpec>& streams,
                                            std::uint64_t seed) {
    std::vector<Request> all;
    std::size_t total = 0;
    for (const auto& stream : streams) total += stream.requests;
    all.reserve(total);
    merge_timeline(stream_sources(streams, seed),
                   [&all](const Request& r) { all.push_back(r); });
    return all;
}

std::vector<Request> replay_or_generate(const std::vector<StreamSpec>& streams,
                                        std::uint64_t seed, const std::string& replay_trace) {
    auto requests = replay_trace.empty()
                        ? build_request_timeline(streams, seed)
                        : trace::TraceArrivalSource(replay_trace).requests(streams);
    trace::maybe_record(streams, requests);
    return requests;
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

    const auto requests =
        replay_or_generate(config_.streams, config_.seed, config_.replay_trace);
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
