// Byte-identity tests for the batched/blocked RL math (the hot-path perf
// layer): every compiled SIMD build of the kernels (kernels::Isa) against
// its scalar reference, Matrix::slice_matmul versus slice_matvec, the
// scratch-buffer and batched SlimmableMlp forwards versus the per-sample
// path, the blocked backward versus per-sample backward(), Adam versus a
// copy of its scalar update loop, and full DqnCore::train_batch equivalence
// -- identical losses, Q-values and post-training parameters between
// DqnMath::scalar and DqnMath::batched across widths, batch sizes and
// slimmable active dims (including ragged out_active < out_ via
// slim_output). "Identical" here means bitwise: the kernels restructure the
// loops but never the per-element reduction order, so every double must
// match exactly, not approximately.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "rl/dqn.hpp"
#include "rl/kernels.hpp"
#include "rl/layers.hpp"
#include "rl/matrix.hpp"
#include "rl/mlp.hpp"
#include "rl/optimizer.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"

namespace lotus::rl {
namespace {

[[nodiscard]] Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
    Matrix m(rows, cols);
    for (auto& v : m.flat()) v = rng.uniform(-1.0, 1.0);
    return m;
}

[[nodiscard]] std::vector<double> random_vector(std::size_t n, util::Rng& rng) {
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    return v;
}

void expect_bitwise_eq(std::span<const double> a, std::span<const double> b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << "element " << i << ": " << a[i] << " vs " << b[i];
    }
}

/// Online Q-values at `width` (the full action dimension).
std::vector<double> q_values(const DqnCore& dqn, std::span<const double> state,
                             double width) {
    std::vector<double> q(dqn.online().output_dim());
    dqn.q_values(state, width, q);
    return q;
}

TEST(SliceMatmul, BitIdenticalToMatvecAcrossShapes) {
    util::Rng rng(7);
    // Ragged shapes: partial 8-row panels, partial sample tiles, plus
    // oversized X/Y columns.
    const struct {
        std::size_t out, in, batch;
    } shapes[] = {{1, 1, 1}, {3, 5, 2},  {4, 7, 3},   {6, 6, 5},
                  {48, 7, 8}, {5, 128, 4}, {128, 96, 2}, {9, 13, 7}};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(s.out, s.in + 2, rng); // wider than `in`
        const Matrix x = random_matrix(s.batch, s.in + 1, rng);
        const auto b = random_vector(s.out, rng);
        Matrix y_batched(s.batch, s.out + 1, -99.0); // oversized, poisoned
        std::vector<double> panel;
        Matrix::slice_matmul(a, x, b, y_batched, s.out, s.in, s.batch, panel);

        std::vector<double> y_ref(s.out);
        for (std::size_t k = 0; k < s.batch; ++k) {
            Matrix::slice_matvec(a, x.row(k), b, y_ref, s.out, s.in);
            expect_bitwise_eq(y_ref, y_batched.row(k).first(s.out));
            // Columns beyond `out` stay untouched.
            EXPECT_EQ(y_batched(k, s.out), -99.0);
        }
    }
}

// Every SIMD build this binary carries; the AVX2 one is skipped, not
// failed, on a host without AVX2.
class KernelIsa : public ::testing::TestWithParam<std::string> {
protected:
    void SetUp() override {
        if (GetParam() == "avx2") {
            isa_ = kernels::avx2();
            if (isa_ == nullptr) GTEST_SKIP() << "no AVX2 build or host lacks AVX2";
        } else {
            isa_ = &kernels::portable();
        }
    }
    const kernels::Isa* isa_ = nullptr;
};

TEST_P(KernelIsa, MatmulBitIdenticalToMatvec) {
    util::Rng rng(19);
    // The paper's Q-network {7,128,128,128,48} at widths 1.0 and 0.75, then
    // ragged shapes: out not a multiple of 8, batch not a multiple of any
    // sample tile, in below one vector.
    const struct {
        std::size_t out, in;
    } layers[] = {{128, 7}, {128, 128}, {48, 128}, {96, 6}, {96, 96}, {48, 96},
                  {1, 1},   {3, 5},     {9, 13},   {6, 6},  {17, 2}, {5, 128}};
    for (const auto& l : layers) {
        for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                        std::size_t{5}, std::size_t{7}, std::size_t{32}}) {
            const Matrix a = random_matrix(l.out, l.in + 2, rng);
            const Matrix x = random_matrix(batch, l.in + 1, rng);
            const auto b = random_vector(l.out, rng);
            Matrix y(batch, l.out + 1, -99.0);
            std::vector<double> panel(8 * l.in, 1e300); // stale garbage
            isa_->matmul(a.flat().data(), a.cols(), b.data(), x.flat().data(), x.cols(),
                         y.flat().data(), y.cols(), l.out, l.in, batch, panel.data());
            std::vector<double> ref(l.out);
            for (std::size_t k = 0; k < batch; ++k) {
                Matrix::slice_matvec(a, x.row(k), b, ref, l.out, l.in);
                expect_bitwise_eq(ref, y.row(k).first(l.out));
                EXPECT_EQ(y(k, l.out), -99.0);
            }
        }
    }
}

TEST_P(KernelIsa, AxpyRowsBitIdenticalToScalarChain) {
    util::Rng rng(29);
    const Matrix base = random_matrix(40, 131, rng);
    // Rows out of order and repeated, with zero and negative weights.
    const std::vector<std::uint32_t> idx{7, 0, 39, 7, 12, 3, 3, 25, 18, 1, 30};
    std::vector<double> g = random_vector(idx.size(), rng);
    g[4] = 0.0;
    for (const std::size_t len : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                  std::size_t{7}, std::size_t{31}, std::size_t{32},
                                  std::size_t{33}, std::size_t{96}, std::size_t{128},
                                  std::size_t{131}}) {
        for (const std::size_t count : {std::size_t{0}, std::size_t{1}, idx.size()}) {
            auto acc = random_vector(len + 1, rng);
            auto ref = acc;
            isa_->axpy_rows(acc.data(), base.flat().data(), base.cols(), idx.data(), g.data(),
                            count, len);
            for (std::size_t c = 0; c < len; ++c) {
                for (std::size_t j = 0; j < count; ++j) ref[c] += g[j] * base(idx[j], c);
            }
            expect_bitwise_eq(ref, acc); // includes the untouched acc[len]
        }
    }
}

// Adam::step's per-parameter update as it was written before it was
// vectorised: the reference the kernels must reproduce bit for bit.
void reference_adam(double* w, const double* g, double* m, double* v,
                    const std::uint8_t* mask, std::size_t n, double scale, double beta1,
                    double beta2, double lr, double eps, std::size_t t) {
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (std::size_t i = 0; i < n; ++i) {
        if (!mask[i]) continue;
        const double gs = g[i] * scale;
        m[i] = beta1 * m[i] + (1.0 - beta1) * gs;
        v[i] = beta2 * v[i] + (1.0 - beta2) * gs * gs;
        const double mhat = m[i] / bc1;
        const double vhat = v[i] / bc2;
        w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
}

TEST_P(KernelIsa, AdamBitIdenticalToScalarLoop) {
    util::Rng rng(37);
    // A 16 x 12 weight block masked to its 0.75-width prefix (12 x 9), a
    // fully set block, a checkerboard and ragged tails; t = 1 and t = 400,
    // where 1 - 0.9^t rounds to exactly 1.0.
    const std::size_t rows = 16;
    const std::size_t cols = 12;
    std::vector<std::vector<std::uint8_t>> masks;
    auto& prefix = masks.emplace_back(rows * cols, 0);
    for (std::size_t r = 0; r < 12; ++r) {
        for (std::size_t c = 0; c < 9; ++c) prefix[r * cols + c] = 1;
    }
    masks.emplace_back(rows * cols, 1);
    auto& checker = masks.emplace_back(rows * cols, 0);
    for (std::size_t i = 0; i < checker.size(); ++i) checker[i] = i % 3 == 0 ? 1 : 0;
    for (const auto& mask : masks) {
        for (const std::size_t n : {rows * cols, std::size_t{7}, std::size_t{1}}) {
            for (const std::size_t t : {std::size_t{1}, std::size_t{400}}) {
                for (const double scale : {1.0, 0.37}) {
                    const double beta1 = 0.9;
                    const double beta2 = 0.99;
                    auto w = random_vector(n, rng);
                    const auto g = random_vector(n, rng);
                    auto m = random_vector(n, rng);
                    auto v = random_vector(n, rng);
                    for (auto& x : v) x = std::abs(x);
                    auto w_ref = w;
                    auto m_ref = m;
                    auto v_ref = v;
                    reference_adam(w_ref.data(), g.data(), m_ref.data(), v_ref.data(),
                                   mask.data(), n, scale, beta1, beta2, 0.01, 1e-8, t);
                    const kernels::AdamCoeffs k{
                        .scale = scale,
                        .beta1 = beta1,
                        .beta2 = beta2,
                        .one_minus_beta1 = 1.0 - beta1,
                        .one_minus_beta2 = 1.0 - beta2,
                        .bc1 = 1.0 - std::pow(beta1, static_cast<double>(t)),
                        .bc2 = 1.0 - std::pow(beta2, static_cast<double>(t)),
                        .lr = 0.01,
                        .epsilon = 1e-8,
                    };
                    isa_->adam(w.data(), g.data(), m.data(), v.data(), mask.data(), n, k);
                    expect_bitwise_eq(w_ref, w);
                    expect_bitwise_eq(m_ref, m);
                    expect_bitwise_eq(v_ref, v);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Builds, KernelIsa, ::testing::Values("portable", "avx2"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             return info.param;
                         });

// Adam::step as a whole (clip norm, bias corrections, both mask kinds)
// against the reference loop with clipping active, at 0.75-width prefix
// masks, over enough steps that both bias corrections reach exactly 1.0.
// Both DqnMath modes share Adam, so DqnMathEquivalence cannot catch this.
TEST(AdamStep, BitIdenticalToScalarReferenceWithClippingAndPrefixMasks) {
    MlpConfig cfg;
    cfg.dims = {7, 21, 13, 6};
    cfg.seed = 43;
    SlimmableMlp net(cfg);
    SlimmableMlp ref_net(cfg);
    AdamConfig acfg;
    acfg.beta2 = 0.5; // 1 - 0.5^t is exactly 1.0 from t = 54 on
    acfg.grad_clip = 0.05;
    Adam adam(net, acfg);
    std::vector<std::vector<double>> mw;
    std::vector<std::vector<double>> vw;
    std::vector<std::vector<double>> mb;
    std::vector<std::vector<double>> vb;
    for (const auto& layer : ref_net.layers()) {
        mw.emplace_back(layer.weights().size(), 0.0);
        vw.emplace_back(layer.weights().size(), 0.0);
        mb.emplace_back(layer.bias().size(), 0.0);
        vb.emplace_back(layer.bias().size(), 0.0);
    }
    const CosineLrSchedule lr(acfg.lr, acfg.lr_min, acfg.lr_total_steps);
    util::Rng rng(47);
    bool clipped = false;
    for (std::size_t t = 1; t <= 400; ++t) {
        const auto x = random_vector(7, rng);
        const auto dout = random_vector(6, rng);
        for (auto* n : {&net, &ref_net}) {
            ForwardCache fc;
            n->forward_cached(x, t % 3 == 0 ? 1.0 : 0.75, fc);
            n->backward(fc, dout);
        }
        double sq = 0.0;
        for (auto& layer : ref_net.layers()) {
            const auto gw = layer.grad_weights().flat();
            for (std::size_t i = 0; i < gw.size(); ++i) {
                if (layer.weight_mask()[i]) sq += gw[i] * gw[i];
            }
            const auto gb = layer.grad_bias();
            for (std::size_t i = 0; i < gb.size(); ++i) {
                if (layer.bias_mask()[i]) sq += gb[i] * gb[i];
            }
        }
        const double norm = std::sqrt(sq);
        const double scale = norm > acfg.grad_clip ? acfg.grad_clip / norm : 1.0;
        clipped = clipped || scale != 1.0;
        for (std::size_t l = 0; l < ref_net.num_layers(); ++l) {
            auto& layer = ref_net.layers()[l];
            reference_adam(layer.weights().flat().data(), layer.grad_weights().flat().data(),
                           mw[l].data(), vw[l].data(), layer.weight_mask().data(),
                           mw[l].size(), scale, acfg.beta1, acfg.beta2, lr.at(t),
                           acfg.epsilon, t);
            reference_adam(layer.bias().data(), layer.grad_bias().data(), mb[l].data(),
                           vb[l].data(), layer.bias_mask().data(), mb[l].size(), scale,
                           acfg.beta1, acfg.beta2, lr.at(t), acfg.epsilon, t);
        }
        ref_net.zero_grad();
        adam.step(net);
    }
    EXPECT_TRUE(clipped);
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
        expect_bitwise_eq(ref_net.layers()[l].weights().flat(),
                          net.layers()[l].weights().flat());
        expect_bitwise_eq(ref_net.layers()[l].bias(), net.layers()[l].bias());
    }
}

TEST(MlpScratchForward, BitIdenticalToVectorForward) {
    for (const bool slim_output : {false, true}) {
        MlpConfig cfg;
        cfg.dims = {7, 19, 13, 48};
        cfg.slim_output = slim_output;
        cfg.seed = 11;
        const SlimmableMlp net(cfg);
        util::Rng rng(3);
        MlpScratch scratch;
        std::vector<double> out(net.output_dim(), 0.0);
        for (const double width : {0.5, 0.75, 1.0}) {
            for (int rep = 0; rep < 4; ++rep) {
                const auto x = random_vector(7, rng);
                const auto ref = net.forward(x, width);
                net.forward(x, width, out, scratch);
                expect_bitwise_eq(ref, out);
            }
        }
    }
}

TEST(MlpForwardBatch, BitIdenticalToPerSampleForward) {
    for (const bool slim_output : {false, true}) {
        MlpConfig cfg;
        cfg.dims = {7, 33, 17, 48};
        cfg.slim_output = slim_output; // ragged out_active < out_ when true
        cfg.seed = 23;
        const SlimmableMlp net(cfg);
        util::Rng rng(5);
        BatchCache cache; // reused across widths: resize paths exercised
        for (const double width : {0.6, 0.75, 1.0}) {
            for (const std::size_t batch : {std::size_t{1}, std::size_t{2},
                                            std::size_t{5}, std::size_t{32}}) {
                Matrix x = random_matrix(batch, 7, rng);
                net.forward_batch(x, batch, width, cache);
                ASSERT_EQ(cache.batch, batch);
                for (std::size_t k = 0; k < batch; ++k) {
                    const auto ref = net.forward(x.row(k), width);
                    expect_bitwise_eq(ref, cache.output.row(k));
                }
            }
        }
    }
}

// The blocked backward against per-sample backward() in the same sample
// order: samples from two width caches interleaved out of group order (rows
// visited 2, 0, 3, 1 ...), dead-ReLU units (biases forced far negative, so
// whole gradient rows are zero), an all-zero output gradient, and grads that
// are already non-zero when the second batch arrives.
TEST(MlpBackwardBatch, BitIdenticalGradsToPerSampleBackward) {
    for (const bool slim_output : {false, true}) {
        MlpConfig cfg;
        cfg.dims = {7, 128, 128, 128, 48};
        cfg.slim_output = slim_output;
        cfg.seed = 31;
        SlimmableMlp scalar_net(cfg);
        SlimmableMlp batched_net(cfg); // same seed -> same init
        for (auto* net : {&scalar_net, &batched_net}) {
            for (const std::size_t unit : {3U, 40U, 100U, 127U}) {
                net->layers()[1].bias()[unit] = -1e3;
                net->layers()[2].bias()[unit / 2] = -1e3;
            }
        }
        util::Rng rng(13);
        const double widths[] = {1.0, 0.75};
        const std::size_t per_width = 9;
        const Matrix x_full = random_matrix(per_width, 7, rng);
        const Matrix x_slim = random_matrix(per_width, 7, rng);
        BatchCache caches[2];
        batched_net.forward_batch(x_full, per_width, widths[0], caches[0]);
        batched_net.forward_batch(x_slim, per_width, widths[1], caches[1]);

        struct Pick {
            std::size_t cache, row;
        };
        std::vector<Pick> order;
        for (const std::size_t row : {2, 0, 3, 1, 8, 5, 4, 7, 6}) {
            order.push_back({row % 2, row});
            order.push_back({(row + 1) % 2, row});
        }
        Matrix douts(order.size(), scalar_net.output_dim());
        for (std::size_t k = 0; k < order.size(); ++k) {
            if (k == 5) continue; // all-zero output gradient
            for (auto& d : douts.row(k)) d = rng.uniform(-1.0, 1.0);
        }

        BackwardScratch scratch;
        ForwardCache fc;
        for (int pass = 0; pass < 2; ++pass) {
            std::vector<BackwardSample> samples;
            for (std::size_t k = 0; k < order.size(); ++k) {
                const auto& pick = order[k];
                const Matrix& x = pick.cache == 0 ? x_full : x_slim;
                scalar_net.forward_cached(x.row(pick.row), widths[pick.cache], fc);
                scalar_net.backward(fc, douts.row(k));
                samples.push_back({&caches[pick.cache], pick.row, douts.row(k)});
            }
            batched_net.backward_batch(samples, scratch);

            for (std::size_t l = 0; l < scalar_net.num_layers(); ++l) {
                auto& sl = scalar_net.layers()[l];
                auto& bl = batched_net.layers()[l];
                expect_bitwise_eq(sl.grad_weights().flat(), bl.grad_weights().flat());
                expect_bitwise_eq(sl.grad_bias(), bl.grad_bias());
                const auto sm = sl.weight_mask();
                const auto bm = bl.weight_mask();
                ASSERT_EQ(sm.size(), bm.size());
                EXPECT_EQ(std::memcmp(sm.data(), bm.data(), sm.size()), 0);
                EXPECT_EQ(std::memcmp(sl.bias_mask().data(), bl.bias_mask().data(),
                                      sl.bias_mask().size()),
                          0);
            }
        }
        // The forced-dead units really were dead: their weight-gradient rows
        // stayed exactly zero.
        for (const auto g : batched_net.layers()[1].grad_weights().row(40)) EXPECT_EQ(g, 0.0);
    }
}

// The mask high-water-mark optimisation must mark exactly the union of the
// leading spans touched across a batch of mixed widths.
TEST(SlimmableLinearMask, PrefixMarkingMatchesBruteForce) {
    util::Rng rng(17);
    SlimmableLinear layer(8, 6, rng);
    std::vector<double> dx(8, 0.0);
    const auto x = random_vector(8, rng);
    const auto dy = random_vector(6, rng);

    // Narrow, wide, then narrow again: the second narrow call must not
    // unmark anything, the wide call must extend every row span.
    const struct {
        std::size_t in_active, out_active;
    } calls[] = {{4, 3}, {8, 6}, {4, 3}, {6, 5}};
    std::vector<std::uint8_t> expect_w(8 * 6, 0);
    std::vector<std::uint8_t> expect_b(6, 0);
    for (const auto& call : calls) {
        layer.backward(x, std::span<const double>(dy).first(call.out_active),
                       std::span<double>(dx).first(call.in_active), call.in_active,
                       call.out_active);
        for (std::size_t r = 0; r < call.out_active; ++r) {
            expect_b[r] = 1;
            for (std::size_t c = 0; c < call.in_active; ++c) expect_w[r * 8 + c] = 1;
        }
    }
    const auto mw = layer.weight_mask();
    const auto mb = layer.bias_mask();
    EXPECT_EQ(std::memcmp(mw.data(), expect_w.data(), expect_w.size()), 0);
    EXPECT_EQ(std::memcmp(mb.data(), expect_b.data(), expect_b.size()), 0);

    // zero_grad resets the high-water marks too: a narrow backward after it
    // must mark the narrow prefix again from scratch.
    layer.zero_grad();
    for (const auto m : layer.weight_mask()) ASSERT_EQ(m, 0);
    layer.backward(x, std::span<const double>(dy).first(2),
                   std::span<double>(dx).first(3), 3, 2);
    for (std::size_t r = 0; r < 6; ++r) {
        for (std::size_t c = 0; c < 8; ++c) {
            EXPECT_EQ(layer.weight_mask()[r * 8 + c], (r < 2 && c < 3) ? 1 : 0);
        }
    }
}

[[nodiscard]] Transition make_transition(util::Rng& rng, std::size_t state_dim,
                                         std::size_t actions, double width_state,
                                         double width_next, bool terminal) {
    Transition t;
    t.state = random_vector(state_dim, rng);
    t.next_state = random_vector(state_dim, rng);
    t.action = static_cast<int>(rng.uniform_int(0, static_cast<std::int64_t>(actions) - 1));
    t.reward = rng.uniform(-1.0, 1.0);
    t.terminal = terminal;
    t.width_state = width_state;
    t.width_next = width_next;
    return t;
}

struct DqnCase {
    bool double_dqn;
    bool slim_output;
    std::size_t batch_size;
};

class DqnMathEquivalence : public ::testing::TestWithParam<DqnCase> {};

// The full gate: scalar and batched DqnCores fed identical transition
// streams must agree bitwise on every loss, every Q-value and every
// parameter after several optimizer steps (including a target-net sync).
TEST_P(DqnMathEquivalence, TrainBatchBitIdentical) {
    const auto param = GetParam();
    MlpConfig net;
    net.dims = {7, 24, 16, 48};
    net.slim_output = param.slim_output;
    net.seed = 41;

    DqnConfig cfg;
    cfg.gamma = 0.9;
    cfg.target_sync_every = 3; // force a sync mid-test
    cfg.double_dqn = param.double_dqn;

    cfg.math = DqnMath::scalar;
    DqnCore scalar_core(net, cfg);
    cfg.math = DqnMath::batched;
    DqnCore batched_core(net, cfg);

    util::Rng rng(97);
    // Mixed widths alternating like LOTUS' even/odd steps, plus terminals
    // and a lone off-grid width to force a third bucket.
    std::vector<Transition> pool;
    for (std::size_t i = 0; i < 64; ++i) {
        const double ws = (i % 2 == 0) ? 1.0 : 0.75;
        const double wn = (i % 2 == 0) ? 0.75 : 1.0;
        pool.push_back(make_transition(rng, 7, 48, i % 7 == 3 ? 0.5 : ws, wn,
                                       i % 5 == 0));
    }

    std::size_t cursor = 0;
    for (int step = 0; step < 8; ++step) {
        std::vector<const Transition*> batch;
        for (std::size_t i = 0; i < param.batch_size; ++i) {
            batch.push_back(&pool[cursor]);
            cursor = (cursor + 1) % pool.size();
        }
        const double scalar_loss = scalar_core.train_batch(batch);
        const double batched_loss = batched_core.train_batch(batch);
        EXPECT_EQ(std::memcmp(&scalar_loss, &batched_loss, sizeof(double)), 0)
            << "step " << step << ": " << scalar_loss << " vs " << batched_loss;
    }

    for (std::size_t l = 0; l < scalar_core.online().num_layers(); ++l) {
        const auto& sl = scalar_core.online().layers()[l];
        const auto& bl = batched_core.online().layers()[l];
        expect_bitwise_eq(sl.weights().flat(), bl.weights().flat());
        expect_bitwise_eq(sl.bias(), bl.bias());
        const auto& st = scalar_core.target().layers()[l];
        const auto& bt = batched_core.target().layers()[l];
        expect_bitwise_eq(st.weights().flat(), bt.weights().flat());
    }

    const auto probe = random_vector(7, rng);
    for (const double width : {0.75, 1.0}) {
        expect_bitwise_eq(q_values(scalar_core, probe, width),
                          q_values(batched_core, probe, width));
    }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndBatchSizes, DqnMathEquivalence,
    ::testing::Values(DqnCase{false, false, 32}, DqnCase{true, false, 32},
                      DqnCase{false, true, 32}, DqnCase{true, true, 7},
                      DqnCase{false, false, 1}, DqnCase{true, false, 5}),
    [](const ::testing::TestParamInfo<DqnCase>& info) {
        const auto& c = info.param;
        return std::string(c.double_dqn ? "double" : "vanilla") +
               (c.slim_output ? "_ragged" : "_fullout") + "_b" +
               std::to_string(c.batch_size);
    });

// force_dqn_math overrides the config at construction time only.
TEST(DqnMathOverride, ForcedModeAppliesAtConstruction) {
    MlpConfig net;
    net.dims = {4, 8, 6};
    net.seed = 1;
    DqnConfig cfg;
    cfg.math = DqnMath::batched;

    force_dqn_math(DqnMath::scalar);
    ASSERT_TRUE(forced_dqn_math().has_value());
    DqnCore forced(net, cfg);
    force_dqn_math(std::nullopt);
    ASSERT_FALSE(forced_dqn_math().has_value());

    // No direct accessor for the resolved mode; equivalence above proves both
    // behave identically, so here we only check the override is sticky per
    // core: training still works after the global reset.
    util::Rng rng(2);
    std::vector<Transition> ts{make_transition(rng, 4, 6, 1.0, 1.0, false)};
    std::vector<const Transition*> batch{&ts[0]};
    EXPECT_GE(forced.train_batch(batch), 0.0);
}

} // namespace
} // namespace lotus::rl
