// Tests for the extended Linux-governor family (ondemand, conservative,
// KernelGovernor composite, performance/powersave) and the Double-DQN
// extension of the RL core.

#include <gtest/gtest.h>

#include <cstdint>

#include "governors/linux_governors.hpp"
#include "rl/dqn.hpp"

namespace lotus::governors {
namespace {

TickObservation tick(double now, double cpu_util, std::size_t cpu_level,
                     std::size_t gpu_util_pct = 0) {
    TickObservation t;
    t.now_s = now;
    t.dt_s = 0.02;
    t.cpu_util = cpu_util;
    t.gpu_util = static_cast<double>(gpu_util_pct) / 100.0;
    t.cpu_level = cpu_level;
    t.gpu_level = 2;
    t.cpu_levels = 8;
    t.gpu_levels = 6;
    return t;
}

TEST(OndemandPolicy, JumpsToMaxAboveThreshold) {
    OndemandPolicy p;
    EXPECT_EQ(p.decide(tick(0.0, 0.95, 3)), 7u);
}

TEST(OndemandPolicy, HoldsAfterBurstThenScalesDown) {
    OndemandParams params;
    params.sampling_down_factor = 3;
    OndemandPolicy p(params);
    ASSERT_EQ(p.decide(tick(0.00, 0.95, 3)), 7u);
    // Three hold ticks at low load before scaling down.
    EXPECT_EQ(p.decide(tick(0.02, 0.1, 7)), 7u);
    EXPECT_EQ(p.decide(tick(0.04, 0.1, 7)), 7u);
    EXPECT_EQ(p.decide(tick(0.06, 0.1, 7)), 7u);
    const auto after_hold = p.decide(tick(0.08, 0.1, 7));
    EXPECT_LT(after_hold, 7u);
}

TEST(OndemandPolicy, ProportionalScaleDown) {
    OndemandPolicy p;
    // util 0.4 against 0.8 threshold -> half the ladder.
    const auto level = p.decide(tick(0.0, 0.4, 7));
    EXPECT_GE(level, 3u);
    EXPECT_LE(level, 4u);
}

TEST(ConservativePolicy, MovesOneStepAtATime) {
    ConservativePolicy p;
    auto level = p.decide(tick(0.0, 0.95, 3));
    EXPECT_EQ(level, 4u); // one up
    level = p.decide(tick(0.02, 0.95, level));
    EXPECT_EQ(level, 5u); // one more
    level = p.decide(tick(0.04, 0.05, level));
    EXPECT_EQ(level, 4u); // one down
}

TEST(ConservativePolicy, HoldsInMidBand) {
    ConservativePolicy p;
    const auto l0 = p.decide(tick(0.0, 0.5, 4));
    EXPECT_EQ(l0, 4u);
    EXPECT_EQ(p.decide(tick(0.02, 0.5, l0)), 4u);
}

TEST(ConservativePolicy, SaturatesAtLadderEnds) {
    ConservativePolicy p;
    std::size_t level = 7;
    for (int i = 0; i < 5; ++i) level = p.decide(tick(i * 0.02, 0.99, level));
    EXPECT_EQ(level, 7u);
    ConservativePolicy q;
    level = 0;
    for (int i = 0; i < 5; ++i) level = q.decide(tick(i * 0.02, 0.0, level));
    EXPECT_EQ(level, 0u);
}

class KernelGovernorSuite : public ::testing::TestWithParam<CpuPolicyKind> {};

TEST_P(KernelGovernorSuite, DrivesBothDomainsViaTicks) {
    KernelGovernor gov("test", GetParam(), SimpleOndemandParams{});
    EXPECT_GT(gov.tick_interval_s(), 0.0);
    EXPECT_EQ(gov.decision_overhead_s(), 0.0);
    std::size_t cpu = 2;
    std::size_t gpu = 2;
    for (int i = 0; i < 80; ++i) {
        auto t = tick(i * 0.02, 1.0, cpu, 100);
        t.gpu_level = gpu;
        const auto req = gov.on_tick(t);
        if (req.has_request) {
            cpu = req.cpu;
            gpu = req.gpu;
        }
    }
    EXPECT_EQ(gpu, 5u) << "GPU should reach max under sustained load";
    EXPECT_GE(cpu, 5u) << "CPU should ramp under full utilization";
}

INSTANTIATE_TEST_SUITE_P(AllCpuPolicies, KernelGovernorSuite,
                         ::testing::Values(CpuPolicyKind::schedutil,
                                           CpuPolicyKind::ondemand,
                                           CpuPolicyKind::conservative));

// Linux `performance` and `powersave`: FixedGovernor clamps to the ladder.
TEST(FixedGovernor, SizeMaxPinsTopLevels) {
    FixedGovernor gov(SIZE_MAX, SIZE_MAX);
    Observation obs;
    obs.cpu_levels = 8;
    obs.gpu_levels = 6;
    const auto req = gov.on_frame_start(obs);
    ASSERT_TRUE(req.has_request);
    EXPECT_EQ(req.cpu, 7u);
    EXPECT_EQ(req.gpu, 5u);
}

TEST(FixedGovernor, ZeroPinsBottomLevels) {
    FixedGovernor gov(0, 0);
    Observation obs;
    obs.cpu_levels = 8;
    obs.gpu_levels = 6;
    const auto req = gov.on_frame_start(obs);
    ASSERT_TRUE(req.has_request);
    EXPECT_EQ(req.cpu, 0u);
    EXPECT_EQ(req.gpu, 0u);
}

} // namespace
} // namespace lotus::governors

namespace lotus::rl {
namespace {

MlpConfig toy_net(std::uint64_t seed) {
    MlpConfig cfg;
    cfg.dims = {2, 16, 16, 2};
    cfg.slim_input = false;
    cfg.seed = seed;
    return cfg;
}

/// Online Q-values at `width` (the full action dimension).
std::vector<double> q_values(const DqnCore& dqn, std::span<const double> state,
                             double width) {
    std::vector<double> q(dqn.online().output_dim());
    dqn.q_values(state, width, q);
    return q;
}

TEST(DoubleDqn, ConvergesOnBandit) {
    DqnConfig cfg;
    cfg.gamma = 0.0;
    cfg.double_dqn = true;
    cfg.batch_size = 16;
    DqnCore dqn(toy_net(21), cfg);

    ReplayBuffer buf(128);
    const std::vector<double> s{1.0, 0.0};
    for (int i = 0; i < 128; ++i) {
        Transition t;
        t.state = s;
        t.action = i % 2;
        t.reward = (i % 2 == 0) ? 1.0 : 0.0;
        t.next_state = s;
        t.terminal = true;
        buf.push(std::move(t));
    }
    util::Rng rng(23);
    for (int i = 0; i < 300; ++i) dqn.train_step(buf, rng, 1);
    const auto q = q_values(dqn, s, 1.0);
    EXPECT_GT(q[0], q[1]);
}

TEST(DoubleDqn, TargetsDifferFromVanilla) {
    // With identical seeds/data, double-DQN and vanilla DQN must produce
    // different parameter trajectories (the bootstrap differs whenever the
    // online argmax disagrees with the target argmax).
    ReplayBuffer buf(64);
    util::Rng gen(29);
    for (int i = 0; i < 64; ++i) {
        Transition t;
        t.state = {gen.uniform(), gen.uniform()};
        t.action = static_cast<int>(gen.uniform_int(0, 1));
        t.reward = gen.uniform(-1, 1);
        t.next_state = {gen.uniform(), gen.uniform()};
        buf.push(std::move(t));
    }
    DqnConfig vanilla_cfg;
    DqnConfig double_cfg;
    double_cfg.double_dqn = true;
    DqnCore vanilla(toy_net(31), vanilla_cfg);
    DqnCore doubled(toy_net(31), double_cfg);

    util::Rng r1(37);
    util::Rng r2(37);
    for (int i = 0; i < 60; ++i) {
        vanilla.train_step(buf, r1, 1);
        doubled.train_step(buf, r2, 1);
    }
    const std::vector<double> probe{0.5, 0.5};
    EXPECT_NE(q_values(vanilla, probe, 1.0), q_values(doubled, probe, 1.0));
}

} // namespace
} // namespace lotus::rl
