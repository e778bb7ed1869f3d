// Traced-run layer boundary around governors: a pass-through decorator
// installed by wrapping each arm's factories. No engine inspects the
// concrete governor type, so the wrapper changes no output.

#include <memory>
#include <utility>

#include "bench.hpp"

namespace perfbench {

namespace g = lotus::governors;

GovernorStats& governor_stats() {
    static GovernorStats stats;
    return stats;
}

namespace {

class HookTimer {
public:
    explicit HookTimer(HookStats& stats) : stats_(stats), start_(Clock::now()) {}
    ~HookTimer() {
        stats_.calls += 1;
        stats_.ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
                .count());
    }
    HookTimer(const HookTimer&) = delete;
    HookTimer& operator=(const HookTimer&) = delete;

private:
    HookStats& stats_;
    Clock::time_point start_;
};

class TimedGovernor final : public g::Governor {
public:
    explicit TimedGovernor(std::unique_ptr<g::Governor> inner) : inner_(std::move(inner)) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }

    g::LevelRequest on_frame_start(const g::Observation& obs) override {
        const HookTimer t(governor_stats().decide);
        return inner_->on_frame_start(obs);
    }
    g::LevelRequest on_post_rpn(const g::Observation& obs) override {
        const HookTimer t(governor_stats().decide);
        return inner_->on_post_rpn(obs);
    }
    void on_frame_end(const g::FrameOutcome& outcome) override {
        const HookTimer t(governor_stats().learn);
        inner_->on_frame_end(outcome);
    }
    [[nodiscard]] double tick_interval_s() const override { return inner_->tick_interval_s(); }
    g::LevelRequest on_tick(const g::TickObservation& tick) override {
        const HookTimer t(governor_stats().tick);
        return inner_->on_tick(tick);
    }
    [[nodiscard]] double decision_overhead_s() const override {
        return inner_->decision_overhead_s();
    }

private:
    std::unique_ptr<g::Governor> inner_;
};

} // namespace

lotus::harness::Scenario with_timed_governors(lotus::harness::Scenario scenario) {
    for (auto& arm : scenario.arms) {
        if (arm.make) {
            arm.make = [inner = std::move(arm.make)](std::uint64_t seed) {
                return std::unique_ptr<g::Governor>(
                    std::make_unique<TimedGovernor>(inner(seed)));
            };
        }
        if (arm.make_for) {
            arm.make_for = [inner = std::move(arm.make_for)](
                               const lotus::platform::DeviceSpec& spec, std::uint64_t seed) {
                return std::unique_ptr<g::Governor>(
                    std::make_unique<TimedGovernor>(inner(spec, seed)));
            };
        }
    }
    return scenario;
}

} // namespace perfbench
