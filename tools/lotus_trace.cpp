// lotus_trace: record, inspect and transform .ltrc request traces.
//
// A .ltrc trace freezes a serving/fleet request timeline on disk (see
// src/trace/format.hpp for the layout). This tool is the trace-level
// counterpart of lotus_serve: it records traces from registry scenarios,
// prints and slices them, merges shards back together and synthesises
// arbitrarily long timelines directly from arrival specs -- without ever
// running the simulator.
//
// Verbs:
//   record --scenario NAME [--scenario ...] --out DIR [--seed S] [--jobs N]
//       Run the named serving/fleet scenarios (summary output suppressed)
//       and dump every episode's timeline to DIR/<scenario>/<NN>_<arm>.ltrc
//       -- the layout lotus_serve --replay-trace DIR replays from.
//   info FILE
//       Print header, stream table and time span.
//   cat FILE [--limit N]
//       Print records as CSV (id,stream,arrival_s,slo_s,frame_index,
//       resolution_scale,complexity,proposals,jitter).
//   slice IN OUT --ids A:B | --time A:B
//       Copy the id range [A,B) (O(1) seek) or the arrival-time window
//       [A,B) into a sub-trace. Slices keep the full stream table and the
//       original record ids.
//   merge OUT IN1 IN2 [IN3 ...]
//       K-way-merge sorted inputs sharing one stream table; ids renumber
//       in merge order, so merging the slices of a trace reconstructs it
//       byte-for-byte.
//   synth OUT --requests N [--streams K] [--arrival KIND] [--rate HZ]
//             [--burst N] [--slo MS] [--dataset D] [--seed S]
//       Stream the exact timeline a serving run over K phase-staggered
//       streams of N requests each would generate, straight to disk in
//       O(K) memory -- million-request traces in seconds.
//
// slice and merge refuse an OUT that names one of their inputs, however the
// path is spelled (exit 2): the writer would truncate the trace before it is
// read.
//
// Each verb accepts only the flags it reads: --seed applies only where a
// timeline is generated (record, synth), --limit only to cat, and so on; a
// flag the verb would ignore exits 2 instead.
// Unknown flags/verbs and malformed values exit 2; I/O and format errors
// exit 1 with a message naming the file and the defect.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "trace/record.hpp"

using namespace lotus;

namespace {

const std::string kTool = "lotus_trace";

/// Positionals and the flags lotus_trace parses itself.
struct Args {
    std::vector<std::string> positional;
    std::string out_dir;
    std::string ids_range;
    std::string time_range;
    std::uint64_t limit = 0; // 0 = unlimited
};

/// Parse "A:B" into two numbers via the supplied element parser.
template <typename T, typename Parse>
std::pair<T, T> parse_range(const std::string& flag, const std::string& raw, Parse parse) {
    const auto colon = raw.find(':');
    if (colon == std::string::npos) {
        cli::usage_error(kTool, flag + " wants A:B, got '" + raw + "'");
    }
    return {parse(raw.substr(0, colon)), parse(raw.substr(colon + 1))};
}

/// Usage error when `out` is one of `inputs` (same file, however spelled):
/// opening the Writer would truncate that input before it is read.
void refuse_overwriting_input(const std::string& out, const std::vector<std::string>& inputs) {
    for (const auto& in : inputs) {
        std::error_code ec; // a missing OUT (the usual case) is no match
        if (std::filesystem::equivalent(in, out, ec)) {
            cli::usage_error(kTool, "output '" + out + "' is the input '" + in +
                                        "' (writing it would destroy the trace being read)");
        }
    }
}

int cmd_record(const cli::Flags& f, const Args& a) {
    if (f.scenarios.empty()) cli::usage_error(kTool, "record wants --scenario NAME");
    if (a.out_dir.empty()) cli::usage_error(kTool, "record wants --out DIR");
    cli::ScenarioMode mode;
    mode.classic_rejection = " and has no request timeline to record";
    mode.unknown_hint = "";
    mode.trace_dir = a.out_dir;
    mode.report = [&a](const std::vector<const harness::Scenario*>& batch) {
        for (const auto* s : batch) {
            for (std::size_t arm = 0; arm < s->arms.size(); ++arm) {
                const auto path =
                    harness::episode_trace_path(a.out_dir, s->name, arm, s->arms[arm].name);
                const trace::Reader reader(path);
                std::printf("%s: %llu records\n", path.c_str(),
                            static_cast<unsigned long long>(reader.info().record_count));
            }
        }
    };
    return cli::run_scenarios(kTool, f, mode);
}

int cmd_info(const cli::Flags&, const Args& a) {
    if (a.positional.size() != 1) cli::usage_error(kTool, "info wants exactly one FILE");
    trace::Reader reader(a.positional[0]);
    const auto& info = reader.info();
    std::printf("trace:          %s\n", a.positional[0].c_str());
    std::printf("format_version: %u\n", info.format_version);
    std::printf("schema_version: %u\n", info.schema_version);
    std::printf("build:          %s\n", info.build.c_str());
    std::printf("records:        %llu\n",
                static_cast<unsigned long long>(info.record_count));
    std::printf("streams:        %zu\n", info.streams.size());
    for (std::size_t s = 0; s < info.streams.size(); ++s) {
        const auto& si = info.streams[s];
        std::printf("  [%zu] %s dataset=%s slo_s=%.6g requests=%llu\n", s,
                    si.name.c_str(), si.dataset.c_str(), si.slo_s,
                    static_cast<unsigned long long>(si.requests));
    }
    if (info.record_count > 0) {
        // First and last record: two O(1) seeks, independent of trace size.
        trace::TraceRecord first, last;
        reader.seek(0);
        reader.next(first);
        reader.seek(info.record_count - 1);
        reader.next(last);
        std::printf("span_s:         [%.6f, %.6f]\n", first.arrival_s, last.arrival_s);
    }
    return 0;
}

int cmd_cat(const cli::Flags&, const Args& a) {
    if (a.positional.size() != 1) cli::usage_error(kTool, "cat wants exactly one FILE");
    trace::Reader reader(a.positional[0]);
    std::printf(
        "id,stream,arrival_s,slo_s,frame_index,resolution_scale,complexity,"
        "proposals,jitter\n");
    trace::TraceRecord rec;
    std::uint64_t printed = 0;
    while (reader.next(rec)) {
        std::printf("%llu,%u,%.17g,%.17g,%llu,%.17g,%.17g,%d,%.17g\n",
                    static_cast<unsigned long long>(rec.id), rec.stream, rec.arrival_s,
                    rec.slo_s, static_cast<unsigned long long>(rec.frame_index),
                    rec.resolution_scale, rec.complexity, rec.proposals, rec.jitter);
        if (a.limit > 0 && ++printed >= a.limit) break;
    }
    return 0;
}

int cmd_slice(const cli::Flags&, const Args& a) {
    if (a.positional.size() != 2) cli::usage_error(kTool, "slice wants IN OUT");
    if (a.ids_range.empty() == a.time_range.empty()) {
        cli::usage_error(kTool, "slice wants exactly one of --ids A:B / --time A:B");
    }
    refuse_overwriting_input(a.positional[1], {a.positional[0]});
    trace::Reader in(a.positional[0]);
    if (!a.ids_range.empty()) {
        const auto [b, e] = parse_range<std::uint64_t>("--ids", a.ids_range,
                                                       [](const std::string& v) {
                                                           return cli::parse_u64(
                                                               kTool, "--ids", v);
                                                       });
        trace::slice_records(in, a.positional[1], b, e);
    } else {
        const auto [t0, t1] = parse_range<double>("--time", a.time_range,
                                                  [](const std::string& v) {
                                                      return cli::parse_positive_double(
                                                          kTool, "--time", v);
                                                  });
        trace::slice_time(in, a.positional[1], t0, t1);
    }
    const trace::Reader out(a.positional[1]);
    std::printf("%s: %llu records\n", a.positional[1].c_str(),
                static_cast<unsigned long long>(out.info().record_count));
    return 0;
}

int cmd_merge(const cli::Flags&, const Args& a) {
    if (a.positional.size() < 3) cli::usage_error(kTool, "merge wants OUT IN1 IN2 [IN3 ...]");
    const std::vector<std::string> inputs(a.positional.begin() + 1, a.positional.end());
    refuse_overwriting_input(a.positional[0], inputs);
    trace::merge_traces(inputs, a.positional[0]);
    const trace::Reader out(a.positional[0]);
    std::printf("%s: %llu records from %zu inputs\n", a.positional[0].c_str(),
                static_cast<unsigned long long>(out.info().record_count), inputs.size());
    return 0;
}

int cmd_synth(const cli::Flags& f, const Args& a) {
    if (a.positional.size() != 1) cli::usage_error(kTool, "synth wants exactly one OUT file");
    if (f.requests == 0) cli::usage_error(kTool, "synth wants --requests N");
    const auto dataset = cli::parse_dataset(kTool, f.dataset);
    const auto arrival = cli::parse_arrival(kTool, f);
    const double slo_s = (f.slo_ms > 0.0 ? f.slo_ms : 500.0) / 1e3;
    const auto streams = cli::staggered_streams(f.streams, dataset, slo_s, f.requests, arrival);
    trace::synth_trace(a.positional[0], streams, f.seed);
    const trace::Reader out(a.positional[0]);
    std::printf("%s: %llu records (%zu streams x %llu requests)\n",
                a.positional[0].c_str(),
                static_cast<unsigned long long>(out.info().record_count), f.streams,
                static_cast<unsigned long long>(f.requests));
    return 0;
}

/// Each verb and the flags it reads; every other flag is rejected for it.
struct Verb {
    std::string_view name;
    int (*run)(const cli::Flags&, const Args&);
    cli::FlagList flags;
};

const std::vector<Verb> kVerbs = {
    {"record", cmd_record, {"--scenario", "--out", "--seed", "--jobs"}},
    {"info", cmd_info, {}},
    {"cat", cmd_cat, {"--limit"}},
    {"slice", cmd_slice, {"--ids", "--time"}},
    {"merge", cmd_merge, {}},
    {"synth", cmd_synth,
     {"--requests", "--streams", "--arrival", "--rate", "--burst", "--slo", "--dataset",
      "--seed"}},
};

} // namespace

int main(int argc, char** argv) {
    return cli::guarded_main(kTool, [&] {
        if (argc < 2) {
            cli::usage_error(kTool, "missing verb (record|info|cat|slice|merge|synth)");
        }
        const std::string verb = argv[1];
        Args a;
        const auto f = cli::parse_flags(
            kTool, argc, argv, 2,
            {"--seed", "--jobs", "--scenario", "--streams", "--requests", "--arrival",
             "--rate", "--burst", "--slo", "--dataset"},
            [&](cli::ArgCursor& args, const std::string& flag) {
                if (flag == "--out") {
                    a.out_dir = args.value();
                } else if (flag == "--ids") {
                    a.ids_range = args.value();
                } else if (flag == "--time") {
                    a.time_range = args.value();
                } else if (flag == "--limit") {
                    a.limit = args.u64();
                } else if (flag.empty() || flag[0] != '-') {
                    a.positional.push_back(flag);
                } else {
                    return false;
                }
                return true;
            });
        const auto it = std::find_if(kVerbs.begin(), kVerbs.end(),
                                     [&](const Verb& v) { return v.name == verb; });
        if (it == kVerbs.end()) {
            cli::usage_error(kTool, "unknown verb '" + verb +
                                        "' (record|info|cat|slice|merge|synth)");
        }
        cli::reject_inapplicable(kTool, f, it->flags, [&](const std::string& flag) {
            if (flag == "--seed") {
                return "--seed only applies to the generating verbs (record, synth); '" +
                       verb + "' is fully determined by its input trace";
            }
            std::string readers;
            for (const auto& v : kVerbs) {
                if (cli::listed(v.flags, flag)) {
                    readers += (readers.empty() ? "" : ", ") + std::string(v.name);
                }
            }
            return flag + " only applies to " + readers + "; '" + verb + "' never reads it";
        });
        return it->run(f, a);
    });
}
