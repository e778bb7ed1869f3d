#include "fleet/engine.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>

#include "fleet/engine_internal.hpp"
#include "fleet/router.hpp"
#include "prof/profiler.hpp"
#include "serving/device_step.hpp"
#include "serving/engine.hpp"
#include "telemetry/recorder.hpp"
#include "util/rng.hpp"

namespace lotus::fleet {

namespace {

using serving::kTimeEps;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A request staged on a device: routed, but only dispatchable once the
/// device clock reaches `ready_s` (the routing or migration instant) --
/// a migrated request must not execute on its new device at a local time
/// before it logically left the old one.
struct Staged {
    serving::Request request;
    double ready_s = 0.0;
};

/// One device slot at run time: the shared per-device step (device, engine,
/// scheduler, queue) plus its own governor and the dispatcher-side
/// bookkeeping the router reads.
struct Worker : serving::DeviceStep {
    Worker(const FleetDevice& slot, double ambient, const runtime::EngineConfig& engine_cfg,
           std::unique_ptr<governors::Governor> gov, const std::string& scheduler_name)
        : DeviceStep(
              [&] {
                  auto s = slot.spec;
                  if (slot.ambient_overridden()) s.initial_ambient_celsius = slot.ambient_celsius;
                  return s;
              }(),
              engine_cfg, scheduler_name),
          spec(&slot), governor(std::move(gov)) {
        // Telemetry processes are named by slot id, not spec name, so
        // identical twins stay distinguishable in a trace.
        device.set_telemetry_label(slot.id);
        device.set_ambient(slot.ambient_overridden() ? slot.ambient_celsius : ambient);
        device.reset(); // start in equilibrium with the (possibly overridden) ambient
        observe_peak();
    }

    void observe_peak() {
        peak_temp_c = std::max(peak_temp_c, std::max(device.cpu_temp(), device.gpu_temp()));
    }

    [[nodiscard]] std::size_t pending() const noexcept {
        return queue.size() + inbox.size();
    }

    /// Earliest device-local time at which this worker can act (dispatch or
    /// failure drain); +infinity when it has nothing pending.
    [[nodiscard]] double next_event_s() const noexcept {
        double t = kInf;
        if (!queue.empty()) t = device.now();
        for (const auto& s : inbox) {
            t = std::min(t, std::max(device.now(), s.ready_s));
        }
        return t;
    }

    [[nodiscard]] bool alive(double now_s) const noexcept {
        return now_s < spec->fail_at_s;
    }

    const FleetDevice* spec;
    std::unique_ptr<governors::Governor> governor;
    /// End of the last served frame (DeviceView::busy_until_s).
    double busy_until_s = 0.0;
    std::vector<Staged> inbox;
    std::size_t max_depth = 0;
    std::size_t migrations_out = 0;
    double peak_temp_c = 0.0;
    bool drained = false; // failure drain already executed
};

} // namespace

FleetDevice make_device(std::string id, platform::DeviceSpec spec) {
    return FleetDevice(std::move(id), std::move(spec));
}

void resize_pool(FleetConfig& config, std::size_t n) {
    if (config.devices.empty()) {
        throw std::invalid_argument("resize_pool: the pool has no template devices");
    }
    if (n == 0) throw std::invalid_argument("resize_pool: a fleet needs >= 1 device");
    const auto base = config.devices;
    if (config.devices.size() > n) {
        config.devices.erase(config.devices.begin() + static_cast<std::ptrdiff_t>(n),
                             config.devices.end());
    }
    for (std::size_t i = config.devices.size(); i < n; ++i) {
        auto clone = base[i % base.size()];
        clone.id = clone.id + "x" + std::to_string(i);
        config.devices.push_back(std::move(clone));
    }
}

FleetEngine::FleetEngine(FleetConfig config) : config_(std::move(config)) {
    if (config_.devices.empty()) {
        throw std::invalid_argument("FleetEngine: no devices configured");
    }
    std::set<std::string> ids;
    for (const auto& d : config_.devices) {
        if (d.id.empty()) throw std::invalid_argument("FleetEngine: device with empty id");
        if (!ids.insert(d.id).second) {
            throw std::invalid_argument("FleetEngine: duplicate device id '" + d.id + "'");
        }
    }
    serving::validate_streams(config_.streams, config_.scheduler, "FleetEngine");
    (void)make_router(config_.router); // throws on unknown router
}

std::uint64_t FleetEngine::governor_seed(std::uint64_t governor_seed_root,
                                         std::size_t index) const {
    return util::derive_seed(governor_seed_root,
                             "governor/" + config_.devices.at(index).id, index);
}

FleetTrace FleetEngine::run(const GovernorFactory& make_governor,
                            std::uint64_t governor_seed_root) const {
    return run_routed(*this, make_governor, governor_seed_root, make_router(config_.router));
}

FleetTrace run_routed(const FleetEngine& engine,
                      const FleetEngine::GovernorFactory& make_governor,
                      std::uint64_t governor_seed_root, std::unique_ptr<Router> router) {
    LOTUS_PROF_SCOPE("fleet.run");
    const FleetConfig& cfg = engine.config();
    const auto model = detector::make_detector(cfg.detector);

    // --- build the pool -----------------------------------------------------
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(cfg.devices.size());
    for (std::size_t i = 0; i < cfg.devices.size(); ++i) {
        const auto& slot = cfg.devices[i];
        workers.push_back(std::make_unique<Worker>(
            slot, cfg.ambient_celsius, cfg.engine,
            make_governor(slot.spec, engine.governor_seed(governor_seed_root, i)),
            cfg.scheduler));
    }

    const auto slot_pretrain_constraint = [&](const FleetDevice& slot) {
        if (slot.pretrain_constraint_s > 0.0) return slot.pretrain_constraint_s;
        if (cfg.pretrain_constraint_s > 0.0) return cfg.pretrain_constraint_s;
        return cfg.streams.front().slo_s;
    };

    // Per-device warm-up (unrecorded; the device id namespaces the frame
    // stream, so identical twins draw different frames). Then the
    // governor-informed service prior: before a device completes its first
    // request, the router estimates its pace from the calibrated
    // single-frame constraint (per-device in heterogeneous pools).
    for (auto& w : workers) {
        const double constraint = slot_pretrain_constraint(*w->spec);
        w->warm_up(model, *w->governor, cfg.seed, w->spec->id,
                   cfg.streams.front().dataset, cfg.pretrain_iterations, constraint);
        w->expected_service_s = constraint;
    }

    const auto requests =
        serving::replay_or_generate(cfg.streams, cfg.seed, cfg.replay_trace);

    std::vector<std::string> device_names;
    for (const auto& d : cfg.devices) device_names.push_back(d.id);
    std::vector<std::string> stream_names;
    for (const auto& s : cfg.streams) stream_names.push_back(s.name);
    FleetTrace trace(std::move(device_names), std::move(stream_names), cfg.capture_rows);
    trace.reserve(requests.size());

    const bool idle_pool_to_arrivals = router->reads_thermal();

    // Routing decisions live on the "fleet"/"router" track (created first);
    // request spans on their stream tracks; per-device events on the
    // device's own tracks.
    auto* tel = telemetry::current();
    const int tel_router = tel ? tel->track("fleet", "router") : -1;
    const serving::StepContext ctx(model, cfg.streams);
    const auto note_depth = [&](std::size_t index, double t) {
        workers[index]->note_depth(ctx, t, workers[index]->pending());
    };

    // --- dispatcher bookkeeping ---------------------------------------------
    // Requests routed but not yet served or shed, over the whole pool.
    std::size_t pending_total = 0;
    // Event heap of (next event instant, device index), earliest first with
    // the device index breaking ties. Entries go stale when a worker's next
    // event moves; `event_key[i]` is the instant of worker i's live entry
    // (+infinity: none), and a popped entry that does not match it is skipped.
    using Event = std::pair<double, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::vector<double> event_key(workers.size(), kInf);
    const auto reschedule = [&](std::size_t index) {
        const double t = workers[index]->next_event_s();
        if (t == event_key[index]) return;
        event_key[index] = t;
        if (t < kInf) events.emplace(t, index);
    };
    const auto next_event = [&] {
        while (!events.empty() && events.top().first != event_key[events.top().second]) {
            events.pop();
        }
        return events.empty() ? Event{kInf, Router::npos} : events.top();
    };
    // Only devices with a finite failure instant ever fail over.
    std::vector<std::size_t> mortal;
    for (std::size_t i = 0; i < workers.size(); ++i) {
        if (workers[i]->spec->fail_at_s < kInf) mortal.push_back(i);
    }
    std::vector<DeviceView> views(workers.size());

    /// Route one request at `now`; excluded device (migration source /
    /// failed device) cannot be picked. Dispatcher-level shed when no live
    /// device remains.
    const auto route_request = [&](serving::Request req, double now, std::size_t exclude) {
        LOTUS_PROF_SCOPE("fleet.route");
        LOTUS_PROF_COUNT("fleet.routed", 1);
        for (std::size_t i = 0; i < workers.size(); ++i) {
            const auto& w = *workers[i];
            auto& v = views[i];
            v.index = i;
            v.busy_until_s = w.busy_until_s;
            v.cpu_temp_c = w.device.cpu_temp();
            v.gpu_temp_c = w.device.gpu_temp();
            v.headroom_c = std::min(
                w.spec->spec.cpu_throttle.trip_celsius - v.cpu_temp_c,
                w.spec->spec.gpu_throttle.trip_celsius - v.gpu_temp_c);
            v.throttled = w.device.throttled();
            v.queue_depth = w.pending();
            v.expected_service_s = w.expected_service_s;
            v.backlog_s = std::max(0.0, v.busy_until_s - now) +
                          static_cast<double>(v.queue_depth) * v.expected_service_s;
            v.available = i != exclude && w.alive(now);
        }
        const auto idx = router->route(views, req, now);
        if (idx == Router::npos) {
            trace.add(FleetRecord{ctx.shed(req, now, nullptr, tel_router),
                                  FleetRecord::kNoDevice, req.migrated});
            return;
        }
        if (tel) {
            tel->instant(tel_router, "route", now,
                         "\"request_id\":" + std::to_string(req.id) +
                             ",\"stream\":" +
                             telemetry::jstr(cfg.streams[req.stream].name) +
                             ",\"device\":" + telemetry::jstr(workers[idx]->spec->id) +
                             ",\"rerouted\":" + (req.migrated ? "true" : "false"));
        }
        auto& w = *workers[idx];
        w.inbox.push_back(Staged{std::move(req), now});
        ++pending_total;
        w.max_depth = std::max(w.max_depth, w.pending());
        note_depth(idx, now);
        reschedule(idx);
    };

    /// Pull every queued/staged request off `w` and re-route it across the
    /// rest of the pool at time `now` (throttle migration or failure drain).
    const auto migrate_off = [&](std::size_t index, double now) {
        auto& w = *workers[index];
        std::vector<serving::Request> displaced;
        while (!w.queue.empty()) displaced.push_back(w.queue.take(0));
        for (auto& s : w.inbox) displaced.push_back(std::move(s.request));
        w.inbox.clear();
        pending_total -= displaced.size();
        reschedule(index);
        // Deterministic order: global arrival order, like the dispatcher's
        // own timeline.
        std::sort(displaced.begin(), displaced.end(),
                  [](const serving::Request& a, const serving::Request& b) {
                      return a.id < b.id;
                  });
        w.migrations_out += displaced.size();
        if (tel && !displaced.empty()) {
            tel->instant(tel_router, "migrate_off", now,
                         "\"device\":" + telemetry::jstr(w.spec->id) +
                             ",\"requests\":" + std::to_string(displaced.size()));
        }
        note_depth(index, now);
        for (auto& r : displaced) {
            r.migrated = true;
            route_request(std::move(r), now, index);
        }
    };

    /// The device is past its failure instant: withdraw it and re-route
    /// everything it still holds.
    const auto fail_over = [&](std::size_t index) {
        auto& w = *workers[index];
        w.drained = true;
        const double t_fail = std::max(w.device.now(), w.spec->fail_at_s);
        if (tel) {
            tel->instant(tel_router, "device_failed", t_fail,
                         "\"device\":" + telemetry::jstr(w.spec->id) +
                             ",\"pending\":" + std::to_string(w.pending()));
        }
        migrate_off(index, t_fail);
    };

    /// Idle (and cool, with kernel governors ticking) `w` up to `t`.
    const auto idle_to = [](Worker& w, double t) {
        if (w.device.now() + kTimeEps < t) {
            w.engine.run_idle(t - w.device.now(), *w.governor);
            w.observe_peak();
        }
    };

    /// Serve one scheduling step on `w`: idle up to the event instant, move
    /// ready staged requests into the scheduler-visible queue, pick, run.
    const auto dispatch_one = [&](std::size_t index) {
        LOTUS_PROF_SCOPE("fleet.dispatch");
        auto& w = *workers[index];
        idle_to(w, w.next_event_s());
        const double now = w.device.now();
        for (std::size_t i = 0; i < w.inbox.size();) {
            if (w.inbox[i].ready_s <= now + kTimeEps) {
                w.queue.push(std::move(w.inbox[i].request));
                w.inbox.erase(w.inbox.begin() + static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }

        auto decision = w.pick(now);
        pending_total -= decision.shed.size() + (decision.next ? 1 : 0);
        for (const auto& r : decision.shed) {
            trace.add(FleetRecord{w.shed(ctx, r, now), index, r.migrated});
        }
        note_depth(index, now);
        if (!decision.next) return;

        const auto row = w.serve(ctx, *decision.next, now, *w.governor);
        w.busy_until_s = w.device.now();
        w.observe_peak();
        trace.add(FleetRecord{row, index, decision.next->migrated});
        if (cfg.migrate_on_throttle && row.throttled && w.pending() > 0) {
            migrate_off(index, w.device.now());
        }
    };

    // --- the dispatcher loop ------------------------------------------------
    std::size_t next_arrival = 0;
    while (next_arrival < requests.size() || pending_total > 0) {
        const double t_arr =
            next_arrival < requests.size() ? requests[next_arrival].arrival_s : kInf;

        // Earliest per-device event (dispatch or failure drain); device
        // index breaks ties. Arrivals at time t are routed before dispatches
        // at time t, the same boundary rule the single-device engine applies.
        const auto [t_evt, best] = next_event();
        if (best != Router::npos && t_evt + kTimeEps < t_arr) {
            events.pop();
            event_key[best] = kInf;
            auto& w = *workers[best];
            if (!w.alive(std::max(t_evt, w.device.now()))) {
                fail_over(best);
            } else {
                dispatch_one(best);
            }
            reschedule(best);
            continue;
        }

        // Route the next arrival. A router that reads temperatures sees the
        // pool evaluated at this instant: every live, empty device idles
        // (and cools) up to it first.
        serving::Request req = requests[next_arrival++];
        if (idle_pool_to_arrivals) {
            for (auto& w : workers) {
                if (w->pending() == 0 && w->alive(t_arr)) idle_to(*w, t_arr);
            }
        }
        // A device whose failure instant has passed gives up its queue the
        // moment the dispatcher acts at or after that instant.
        for (const std::size_t i : mortal) {
            const auto& w = *workers[i];
            if (!w.drained && !w.alive(t_arr) && w.pending() > 0) fail_over(i);
        }
        ctx.arrive(req);
        route_request(std::move(req), t_arr, Router::npos);
    }

    // --- close out ----------------------------------------------------------
    // Every device ends no earlier than the last arrival it was alive for,
    // as if it had idled through every routing instant: a device failed
    // before the end idles up to the last arrival before its failure.
    for (auto& w : workers) {
        const auto alive_until = std::lower_bound(
            requests.begin(), requests.end(), w->spec->fail_at_s,
            [](const serving::Request& r, double t) { return r.arrival_s < t; });
        if (alive_until != requests.begin()) idle_to(*w, std::prev(alive_until)->arrival_s);
    }
    double makespan = 0.0;
    for (const auto& w : workers) makespan = std::max(makespan, w->device.now());
    for (std::size_t i = 0; i < workers.size(); ++i) {
        auto& w = *workers[i];
        DeviceStats stats;
        stats.makespan_s = w.device.now();
        stats.energy_j = w.device.energy_joules();
        stats.peak_temp_c = w.peak_temp_c;
        stats.max_queue_depth = std::max(w.max_depth, w.queue.max_depth());
        stats.thermal_steps = w.device.thermal_steps();
        stats.migrations_out = w.migrations_out;
        // Withdrawn only if the failure instant fell inside the run horizon
        // -- a fail_at_s beyond the makespan never took effect.
        stats.failed = w.drained || w.spec->fail_at_s <= makespan;
        trace.set_device_stats(i, stats);
    }
    trace.set_makespan(makespan);
    return trace;
}

} // namespace lotus::fleet
