// Contract tests for the .ltrc trace format: Writer -> Reader is lossless
// at the bit level, malformed files fail with clear errors instead of
// crashing, slices reassemble byte-for-byte, and synth_trace streams the
// exact timeline build_request_timeline materialises.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "governors/linux_governors.hpp"
#include "platform/presets.hpp"
#include "serving/engine.hpp"
#include "trace/format.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"

namespace lotus::trace {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed on destruction.
class TempDir {
public:
    explicit TempDir(const std::string& tag)
        : path_(fs::temp_directory_path() / ("lotus_trace_test_" + tag)) {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    [[nodiscard]] std::string file(const std::string& name) const {
        return (path_ / name).string();
    }

private:
    fs::path path_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_record(const TraceRecord& a, const TraceRecord& b) {
    return a.id == b.id && a.stream == b.stream && a.proposals == b.proposals &&
           bits(a.arrival_s) == bits(b.arrival_s) && bits(a.slo_s) == bits(b.slo_s) &&
           bits(a.resolution_scale) == bits(b.resolution_scale) &&
           bits(a.complexity) == bits(b.complexity) &&
           bits(a.jitter) == bits(b.jitter) && a.frame_index == b.frame_index;
}

std::vector<StreamInfo> two_streams() {
    return {{"alpha", "KITTI", 0.5, 64}, {"beta", "VisDrone2019", 0.25, 32}};
}

std::vector<serving::StreamSpec> serving_streams(std::size_t requests) {
    std::vector<serving::StreamSpec> streams;
    for (std::size_t i = 0; i < 3; ++i) {
        serving::StreamSpec s;
        s.name = "stream" + std::to_string(i);
        s.dataset = i == 1 ? "VisDrone2019" : "KITTI";
        s.slo_s = 0.5 + 0.1 * static_cast<double>(i);
        s.requests = requests;
        s.arrival.kind = i == 0 ? serving::ArrivalKind::poisson
                                : serving::ArrivalKind::bursty;
        s.arrival.rate_hz = 1.0 + static_cast<double>(i);
        streams.push_back(std::move(s));
    }
    return streams;
}

/// The engines' replay path for a trace recorded from `streams`.
std::vector<serving::Request> replay(const std::string& path,
                                     const std::vector<serving::StreamSpec>& streams) {
    return serving::replay_or_generate(streams, 0, path);
}

std::vector<char> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(TraceFormat, WriterReaderRoundTripIsBitExact) {
    const TempDir dir("roundtrip");
    const auto path = dir.file("t.ltrc");

    // Randomised records, including awkward doubles (denormals, negatives
    // from jitter arithmetic, exact integers).
    util::Rng rng(7);
    std::vector<TraceRecord> records;
    double t = 0.0;
    for (std::uint64_t i = 0; i < 500; ++i) {
        TraceRecord r;
        r.id = i;
        r.stream = static_cast<std::uint32_t>(rng.uniform_int(0, 1));
        r.proposals = static_cast<std::int32_t>(rng.uniform_int(0, 4000));
        t += rng.uniform();
        r.arrival_s = t;
        r.slo_s = r.stream == 0 ? 0.5 : 0.25;
        r.resolution_scale = 1.0 / (1.0 + rng.uniform());
        r.complexity = rng.uniform() * 1e-300; // subnormal territory
        r.jitter = 0.75 + 0.5 * rng.uniform();
        r.frame_index = i / 2;
        records.push_back(r);
    }

    {
        Writer writer(path, two_streams());
        for (const auto& r : records) writer.add(r);
        EXPECT_EQ(writer.records_written(), records.size());
        writer.close();
        writer.close(); // idempotent
    }

    Reader reader(path);
    EXPECT_EQ(reader.info().format_version, kFormatVersion);
    EXPECT_EQ(reader.info().record_count, records.size());
    ASSERT_EQ(reader.info().streams.size(), 2u);
    EXPECT_TRUE(same_streams(reader.info().streams, two_streams()));

    TraceRecord rec;
    for (const auto& expected : records) {
        ASSERT_TRUE(reader.next(rec));
        EXPECT_TRUE(same_record(rec, expected)) << "record " << expected.id;
    }
    EXPECT_FALSE(reader.next(rec));

    // O(1) seek lands on the right record.
    reader.seek(250);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_TRUE(same_record(rec, records[250]));
}

TEST(TraceFormat, RequestConversionRoundTrips) {
    const auto streams = serving_streams(16);
    const auto requests = serving::build_request_timeline(streams, 42);
    for (const auto& req : requests) {
        const auto rec = to_record(req);
        const auto back = to_request(rec);
        EXPECT_EQ(back.id, req.id);
        EXPECT_EQ(back.stream, req.stream);
        EXPECT_EQ(bits(back.arrival_s), bits(req.arrival_s));
        EXPECT_EQ(bits(back.slo_s), bits(req.slo_s));
        EXPECT_EQ(back.frame.index, req.frame.index);
        EXPECT_EQ(bits(back.frame.resolution_scale), bits(req.frame.resolution_scale));
        EXPECT_EQ(bits(back.frame.complexity), bits(req.frame.complexity));
        EXPECT_EQ(back.frame.proposals, req.frame.proposals);
        EXPECT_EQ(bits(back.frame.jitter), bits(req.frame.jitter));
    }
}

TEST(TraceFormat, WriteTraceReplayIsLossless) {
    const TempDir dir("timeline");
    const auto path = dir.file("t.ltrc");
    const auto streams = serving_streams(32);
    const auto requests = serving::build_request_timeline(streams, 11);
    write_trace(path, streams, requests);

    const auto loaded = replay(path, streams);
    ASSERT_EQ(loaded.size(), requests.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_TRUE(same_record(to_record(loaded[i]), to_record(requests[i])))
            << "request " << i;
    }
}

TEST(TraceFormat, SynthMatchesWriteTraceByteForByte) {
    const TempDir dir("synth");
    const auto streams = serving_streams(40);
    const auto materialised = dir.file("materialised.ltrc");
    const auto synthed = dir.file("synthed.ltrc");
    write_trace(materialised, streams, serving::build_request_timeline(streams, 123));
    synth_trace(synthed, streams, 123);
    EXPECT_EQ(read_file(materialised), read_file(synthed));
}

TEST(TraceFormat, SliceAndMergeReconstructByteForByte) {
    const TempDir dir("slices");
    const auto full = dir.file("full.ltrc");
    const auto streams = serving_streams(30);
    synth_trace(full, streams, 5);

    Reader in(full);
    const auto n = in.info().record_count;
    ASSERT_GT(n, 10u);
    const auto a = dir.file("a.ltrc");
    const auto b = dir.file("b.ltrc");
    const auto c = dir.file("c.ltrc");
    slice_records(in, a, 0, n / 3);
    slice_records(in, b, n / 3, 2 * n / 3);
    slice_records(in, c, 2 * n / 3, n);

    const auto merged = dir.file("merged.ltrc");
    merge_traces({a, b, c}, merged);
    EXPECT_EQ(read_file(full), read_file(merged));
}

TEST(TraceFormat, MergeInterleavesPerStreamTraces) {
    const TempDir dir("interleave");
    // Two periodic streams with one phase and rate tie exactly across
    // streams; the fast bursty stream's clamped volleys tie within itself.
    auto streams = serving_streams(24);
    for (const char* name : {"tie_a", "tie_b", "burst_fast"}) {
        serving::StreamSpec s;
        s.name = name;
        s.requests = 24;
        s.arrival.kind = s.name == "burst_fast" ? serving::ArrivalKind::bursty
                                                : serving::ArrivalKind::periodic;
        s.arrival.rate_hz = s.name == "burst_fast" ? 500.0 : 2.0;
        s.arrival.phase_s = 0.5;
        streams.push_back(std::move(s));
    }
    const auto timeline = serving::build_request_timeline(streams, 8);
    const auto full = dir.file("full.ltrc");
    write_trace(full, streams, timeline);

    // Write one trace per part (each a timeline-ordered subsequence with the
    // full stream table) and merge them listed last part first, so input
    // order cannot stand in for the (stream, frame_index) tie-break.
    const auto merge_parts = [&](const std::string& tag, std::size_t parts,
                                 const auto& part_of) {
        std::vector<std::string> inputs;
        for (std::size_t p = parts; p-- > 0;) {
            std::vector<serving::Request> part;
            for (const auto& r : timeline) {
                if (part_of(r) == p) part.push_back(r);
            }
            inputs.push_back(dir.file(tag + std::to_string(p) + ".ltrc"));
            write_trace(inputs.back(), streams, part);
        }
        const auto merged = dir.file(tag + "_merged.ltrc");
        merge_traces(inputs, merged);
        EXPECT_EQ(read_file(full), read_file(merged)) << tag;
    };
    merge_parts("stream", streams.size(),
                [](const serving::Request& r) { return r.stream; });
    // Splitting each stream by frame parity puts the two sides of every
    // within-stream tie in different inputs.
    merge_parts("parity", 2 * streams.size(), [](const serving::Request& r) {
        return 2 * r.stream + r.frame.index % 2;
    });
}

TEST(TraceFormat, SliceTimeSelectsTheArrivalWindow) {
    const TempDir dir("slicetime");
    const auto full = dir.file("full.ltrc");
    synth_trace(full, serving_streams(20), 9);

    Reader in(full);
    TraceRecord first;
    in.seek(0);
    ASSERT_TRUE(in.next(first));
    in.seek(in.info().record_count - 1);
    TraceRecord last;
    ASSERT_TRUE(in.next(last));

    const auto mid = (first.arrival_s + last.arrival_s) / 2.0;
    const auto out = dir.file("window.ltrc");
    slice_time(in, out, first.arrival_s, mid);

    Reader window(out);
    EXPECT_GT(window.info().record_count, 0u);
    EXPECT_LT(window.info().record_count, in.info().record_count);
    TraceRecord rec;
    while (window.next(rec)) {
        EXPECT_GE(rec.arrival_s, first.arrival_s);
        EXPECT_LT(rec.arrival_s, mid);
    }
}

TEST(TraceFormat, SliceRejectsEmptyOrOutOfRangeWindows) {
    const TempDir dir("slicebad");
    const auto full = dir.file("full.ltrc");
    synth_trace(full, serving_streams(5), 3);
    Reader in(full);
    const auto n = in.info().record_count;
    EXPECT_THROW(slice_records(in, dir.file("x.ltrc"), 3, 3), std::invalid_argument);
    EXPECT_THROW(slice_records(in, dir.file("x.ltrc"), 0, n + 1), std::invalid_argument);
    EXPECT_THROW(slice_records(in, dir.file("x.ltrc"), 5, 2), std::invalid_argument);
}

TEST(TraceFormat, MergeRejectsMismatchedStreamTables) {
    const TempDir dir("mergebad");
    const auto a = dir.file("a.ltrc");
    const auto b = dir.file("b.ltrc");
    auto streams = serving_streams(5);
    synth_trace(a, streams, 3);
    streams[0].slo_s += 0.125; // bit-level table difference
    synth_trace(b, streams, 3);
    EXPECT_THROW(merge_traces({a, b}, dir.file("out.ltrc")), std::runtime_error);
}

TEST(TraceFormat, ReaderRejectsMissingFile) {
    const TempDir dir("missing");
    EXPECT_THROW(Reader reader(dir.file("nope.ltrc")), std::runtime_error);
}

TEST(TraceFormat, ReaderRejectsBadMagic) {
    const TempDir dir("badmagic");
    const auto path = dir.file("t.ltrc");
    synth_trace(path, serving_streams(4), 1);
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(0);
        f.write("NOTATRCE", 8);
    }
    try {
        Reader reader(path);
        FAIL() << "bad magic accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
    }
}

TEST(TraceFormat, ReaderRejectsUnknownFormatVersion) {
    const TempDir dir("badversion");
    const auto path = dir.file("t.ltrc");
    synth_trace(path, serving_streams(4), 1);
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8);
        const char bumped[4] = {99, 0, 0, 0};
        f.write(bumped, 4);
    }
    try {
        Reader reader(path);
        FAIL() << "unknown format version accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
    }
}

TEST(TraceFormat, ReaderRejectsTruncatedFile) {
    const TempDir dir("truncated");
    const auto path = dir.file("t.ltrc");
    synth_trace(path, serving_streams(10), 1);
    fs::resize_file(path, fs::file_size(path) - kRecordBytes / 2);
    try {
        Reader reader(path);
        FAIL() << "truncated trace accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    }
}

TEST(TraceFormat, ReaderRejectsAbandonedWriter) {
    const TempDir dir("abandoned");
    const auto path = dir.file("t.ltrc");
    {
        // Write records but "crash" before close(): the header still says 0.
        Writer writer(path, two_streams());
        TraceRecord rec;
        rec.slo_s = 0.5;
        writer.add(rec);
        // Swallow the destructor's close by truncating the count back to 0
        // afterwards; simpler: close properly, then zero the count field.
    }
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(56);
        const char zeros[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        f.write(zeros, 8);
    }
    EXPECT_THROW(Reader reader(path), std::runtime_error);
}

TEST(TraceFormat, ReaderRejectsGarbageStreamTable) {
    const TempDir dir("badtable");
    const auto path = dir.file("t.ltrc");
    synth_trace(path, serving_streams(4), 1);
    {
        // Stream table starts right after the fixed header; blow up the
        // first name length.
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(kHeaderBytes));
        const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
        f.write(reinterpret_cast<const char*>(huge), 4);
    }
    EXPECT_THROW(Reader reader(path), std::runtime_error);
}

TEST(TraceFormat, WriterRejectsOutOfRangeStreamId) {
    const TempDir dir("badstream");
    Writer writer(dir.file("t.ltrc"), two_streams());
    TraceRecord rec;
    rec.stream = 2;
    EXPECT_THROW(writer.add(rec), std::invalid_argument);
}

TEST(TraceFormat, ReplayRejectsMismatchedStreams) {
    const TempDir dir("replaymismatch");
    const auto path = dir.file("t.ltrc");
    auto streams = serving_streams(8);
    synth_trace(path, streams, 2);
    streams[1].requests += 1;
    try {
        (void)replay(path, streams);
        FAIL() << "mismatched stream table accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("stream table"), std::string::npos)
            << e.what();
    }
}

TEST(TraceFormat, ReplayRejectsBadArrivals) {
    const TempDir dir("badarrivals");
    const auto streams = serving_streams(8);
    const auto timeline = serving::build_request_timeline(streams, 9);
    // Each corruption must be rejected with a message naming the field.
    const auto rejects = [&](const std::string& name, const std::string& field,
                             auto corrupt) {
        auto requests = timeline;
        corrupt(requests);
        const auto path = dir.file(name + ".ltrc");
        write_trace(path, streams, requests);
        try {
            (void)replay(path, streams);
            ADD_FAILURE() << name << " record accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << name << ": " << e.what();
        }
    };
    using Timeline = std::vector<serving::Request>;
    const double nan = std::nan("");
    rejects("nan", "arrival_s", [&](Timeline& t) { t[3].arrival_s = nan; });
    rejects("inf", "arrival_s", [](Timeline& t) {
        t.back().arrival_s = std::numeric_limits<double>::infinity();
    });
    rejects("negative", "arrival_s", [](Timeline& t) { t.front().arrival_s = -1.0; });
    rejects("decreasing", "arrival_s",
            [](Timeline& t) { std::swap(t[2].arrival_s, t[6].arrival_s); });
    rejects("nan_slo", "slo_s", [&](Timeline& t) { t[4].slo_s = nan; });
    rejects("nan_resolution", "resolution_scale",
            [&](Timeline& t) { t[5].frame.resolution_scale = nan; });
    rejects("nan_complexity", "complexity", [&](Timeline& t) { t[1].frame.complexity = nan; });
    rejects("negative_complexity", "complexity",
            [](Timeline& t) { t[1].frame.complexity = -1.0; });
    rejects("nan_jitter", "jitter", [&](Timeline& t) { t[7].frame.jitter = nan; });
    rejects("negative_proposals", "proposals", [](Timeline& t) { t[2].frame.proposals = -5; });
}

TEST(TraceFormat, ServingReplayOfANanArrivalFailsInsteadOfHanging) {
    const TempDir dir("nanreplay");
    const auto path = dir.file("nan.ltrc");
    serving::ServingConfig cfg(platform::orin_nano_spec());
    cfg.streams = serving_streams(4);
    auto requests = serving::build_request_timeline(cfg.streams, cfg.seed);
    requests.back().arrival_s = std::nan("");
    write_trace(path, cfg.streams, requests);
    cfg.replay_trace = path;
    governors::FixedGovernor governor(5, 3);
    EXPECT_THROW((void)serving::ServingEngine(cfg).run(governor), std::runtime_error);
}

TEST(TraceFormat, CaptureScopeRecordsTimelineBuilds) {
    const TempDir dir("capture");
    const auto path = dir.file("captured.ltrc");
    const auto streams = serving_streams(12);
    {
        CaptureScope scope(path);
        ASSERT_NE(capture_path(), nullptr);
        (void)serving::replay_or_generate(streams, 77, "");
    }
    EXPECT_EQ(capture_path(), nullptr);

    const auto direct = dir.file("direct.ltrc");
    write_trace(direct, streams, serving::build_request_timeline(streams, 77));
    EXPECT_EQ(read_file(path), read_file(direct));
}

TEST(TraceFormat, RecordingAReplayRoundTripsTheFile) {
    const TempDir dir("rerecord");
    const auto original = dir.file("original.ltrc");
    const auto rerecorded = dir.file("rerecorded.ltrc");
    const auto streams = serving_streams(12);
    synth_trace(original, streams, 4);
    {
        CaptureScope scope(rerecorded);
        (void)replay(original, streams);
    }
    EXPECT_EQ(read_file(original), read_file(rerecorded));
}

} // namespace
} // namespace lotus::trace
