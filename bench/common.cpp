#include "common.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lotus::bench {

namespace {

bool env_flag(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

const harness::ExperimentHarness& shared_harness() {
    static const harness::ExperimentHarness h(harness_config());
    return h;
}

} // namespace

harness::HarnessConfig harness_config() {
    harness::HarnessConfig cfg;
    if (const char* jobs = std::getenv("LOTUS_BENCH_JOBS")) {
        const char* end = jobs + std::strlen(jobs);
        std::size_t v = 0;
        const auto [ptr, ec] = std::from_chars(jobs, end, v);
        if (ec != std::errc{} || ptr != end || v == 0) {
            std::fprintf(stderr, "LOTUS_BENCH_JOBS='%s' is not a positive decimal integer\n",
                         jobs);
            std::exit(2);
        }
        cfg.jobs = v;
    }
    return cfg;
}

const Scenario& scenario(const std::string& name) {
    return harness::ScenarioRegistry::instance().at(name);
}

std::vector<EpisodeResult> run(const Scenario& s) { return shared_harness().run(s); }

void maybe_dump_csv(const std::string& stem, const std::vector<EpisodeResult>& results) {
    if (!env_flag("LOTUS_BENCH_CSV")) return;
    harness::write_csv_traces("bench_out", stem, results);
}

} // namespace lotus::bench
