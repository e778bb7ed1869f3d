// Behaviour fingerprint of the serving and fleet engines: every serve_*
// registry scenario runs with full per-request ledgers, and the 64-bit
// FNV-1a digest of its scenario JSON must match the checked-in table. Any
// change to dispatch order, admission, telemetry-free timing or summary
// arithmetic moves a digest. A refactor that claims to preserve behaviour
// keeps this table unchanged; a deliberate behaviour change re-pins it and
// says why.

#include <cstdlib>

#include "fingerprint.hpp"

namespace lotus::harness {
namespace {

// The registry sizes its scenarios from LOTUS_BENCH_FAST at construction;
// set it before anything touches the shared instance so the fingerprint is
// taken at smoke budgets.
const int kFastMode = []() { return ::setenv("LOTUS_BENCH_FAST", "1", 1); }();

// LOTUS_BENCH_FAST=1, harness seed 42, full ledgers.
const fingerprint::Table kExpected = {
    {"serve_light", 0x662c4941715a4bdfULL},
    {"serve_saturation", 0xb2aa854d9cc105abULL},
    {"serve_burst_storm", 0xd250d3780cb96c21ULL},
    {"serve_mixed_slo", 0x19deff480a5f5776ULL},
    {"serve_diurnal", 0x42486de8ce41e14dULL},
    {"serve_latency_attack", 0xd976255f0fb4fb9eULL},
    {"serve_fleet_saturation", 0x3f9adff7a4fdb5acULL},
    {"serve_fleet_hetero", 0xaa05bbd7a1979defULL},
    {"serve_fleet_diurnal_holdout", 0xe509335e4ec91c45ULL},
    {"serve_fleet_burst_migration", 0x010cf9d079abcb19ULL},
};

TEST(BehaviourFingerprint, ServeScenariosMatchPinnedDigests) {
    ASSERT_EQ(kFastMode, 0);
    const auto batch = ScenarioRegistry::instance().with_prefix("serve_");
    fingerprint::expect_table(fingerprint::digests(batch), kExpected, "serve_*");
}

} // namespace
} // namespace lotus::harness
