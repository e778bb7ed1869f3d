#include "trace/record.hpp"

#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "serving/engine.hpp"

namespace lotus::trace {

namespace {

thread_local const std::string* g_capture_path = nullptr;

void create_parent_dirs(const std::string& path) {
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
}

[[noreturn]] void replay_mismatch(const std::string& path, const std::string& what) {
    throw std::runtime_error("trace '" + path + "': recorded stream table does not " +
                             "match the configured streams (" + what +
                             "); a trace replays only against the stream set that "
                             "recorded it");
}

} // namespace

CaptureScope::CaptureScope(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) {
        prev_ = g_capture_path;
        g_capture_path = &path_;
        bound_ = true;
    }
}

CaptureScope::~CaptureScope() {
    if (bound_) g_capture_path = prev_;
}

const std::string* capture_path() noexcept { return g_capture_path; }

std::vector<StreamInfo> stream_table(const std::vector<serving::StreamSpec>& streams) {
    std::vector<StreamInfo> table;
    table.reserve(streams.size());
    for (const auto& s : streams) {
        table.push_back(StreamInfo{s.name, s.dataset, s.slo_s, s.requests});
    }
    return table;
}

TraceRecord to_record(const serving::Request& req) {
    TraceRecord rec;
    rec.id = req.id;
    rec.stream = static_cast<std::uint32_t>(req.stream);
    rec.proposals = req.frame.proposals;
    rec.arrival_s = req.arrival_s;
    rec.slo_s = req.slo_s;
    rec.resolution_scale = req.frame.resolution_scale;
    rec.complexity = req.frame.complexity;
    rec.jitter = req.frame.jitter;
    rec.frame_index = req.frame.index;
    return rec;
}

serving::Request to_request(const TraceRecord& rec) {
    serving::Request req;
    req.id = rec.id;
    req.stream = rec.stream;
    req.arrival_s = rec.arrival_s;
    req.slo_s = rec.slo_s;
    req.frame.index = rec.frame_index;
    req.frame.resolution_scale = rec.resolution_scale;
    req.frame.complexity = rec.complexity;
    req.frame.proposals = rec.proposals;
    req.frame.jitter = rec.jitter;
    return req;
}

void write_trace(const std::string& path, const std::vector<serving::StreamSpec>& streams,
                 const std::vector<serving::Request>& requests) {
    create_parent_dirs(path);
    Writer out(path, stream_table(streams));
    for (const auto& req : requests) out.add(to_record(req));
    out.close();
}

void maybe_record(const std::vector<serving::StreamSpec>& streams,
                  const std::vector<serving::Request>& requests) {
    const auto* path = capture_path();
    if (path == nullptr) return;
    write_trace(*path, streams, requests);
}

TraceArrivalSource::TraceArrivalSource(std::string path) : path_(std::move(path)) {
    Reader reader(path_);
    info_ = reader.info();
}

std::vector<serving::Request> TraceArrivalSource::requests(
    const std::vector<serving::StreamSpec>& streams) const {
    if (!same_streams(info_.streams, stream_table(streams))) {
        if (info_.streams.size() != streams.size()) {
            replay_mismatch(path_, "trace has " + std::to_string(info_.streams.size()) +
                                       " streams, config has " +
                                       std::to_string(streams.size()));
        }
        for (std::size_t i = 0; i < streams.size(); ++i) {
            const auto& rec = info_.streams[i];
            const auto& cfg = streams[i];
            if (rec.name != cfg.name || rec.dataset != cfg.dataset ||
                rec.slo_s != cfg.slo_s || rec.requests != cfg.requests) {
                replay_mismatch(path_, "stream " + std::to_string(i) + ": trace has '" +
                                           rec.name + "'/" + rec.dataset +
                                           ", config has '" + cfg.name + "'/" +
                                           cfg.dataset);
            }
        }
        replay_mismatch(path_, "SLO bit pattern differs");
    }
    Reader reader(path_);
    std::vector<serving::Request> out;
    out.reserve(info_.record_count);
    TraceRecord rec;
    while (reader.next(rec)) {
        // The engines' event loops assume a finite, non-negative,
        // arrival-ordered timeline; a NaN arrival would never come due.
        // The other fields feed deadlines and the latency model, which
        // assume what generated timelines guarantee: a positive SLO (the
        // rule validate_streams applies), finite positive frame factors and
        // a non-negative proposal count.
        const auto finite_positive = [](double v) { return std::isfinite(v) && v > 0.0; };
        const char* defect = nullptr;
        if (!std::isfinite(rec.arrival_s)) {
            defect = "arrival_s is not finite";
        } else if (rec.arrival_s < 0.0) {
            defect = "arrival_s is negative";
        } else if (!out.empty() && rec.arrival_s < out.back().arrival_s) {
            defect = "arrival_s precedes the previous record's";
        } else if (!(rec.slo_s > 0.0)) {
            defect = "slo_s is not positive";
        } else if (!finite_positive(rec.resolution_scale)) {
            defect = "resolution_scale is not finite and positive";
        } else if (!finite_positive(rec.complexity)) {
            defect = "complexity is not finite and positive";
        } else if (!finite_positive(rec.jitter)) {
            defect = "jitter is not finite and positive";
        } else if (rec.proposals < 0) {
            defect = "proposals is negative";
        }
        if (defect != nullptr) {
            throw std::runtime_error("trace '" + path_ + "': record " +
                                     std::to_string(out.size()) + " (id " +
                                     std::to_string(rec.id) + "): " + defect);
        }
        out.push_back(to_request(rec));
    }
    return out;
}

std::vector<serving::StreamSpec> TraceArrivalSource::stream_specs() const {
    std::vector<serving::StreamSpec> specs;
    specs.reserve(info_.streams.size());
    for (const auto& s : info_.streams) {
        serving::StreamSpec spec;
        spec.name = s.name;
        spec.dataset = s.dataset;
        spec.slo_s = s.slo_s;
        spec.requests = s.requests;
        specs.push_back(std::move(spec));
    }
    return specs;
}

void synth_trace(const std::string& path, const std::vector<serving::StreamSpec>& streams,
                 std::uint64_t seed) {
    if (streams.empty()) {
        throw std::invalid_argument("synth_trace: no streams configured");
    }
    auto sources = serving::stream_sources(streams, seed);
    create_parent_dirs(path);
    Writer out(path, stream_table(streams));
    serving::merge_timeline(std::move(sources),
                            [&out](const serving::Request& r) { out.add(to_record(r)); });
    out.close();
}

void merge_traces(const std::vector<std::string>& inputs, const std::string& out_path) {
    if (inputs.empty()) {
        throw std::invalid_argument("trace merge: no input traces");
    }
    std::vector<Reader> readers;
    readers.reserve(inputs.size());
    for (const auto& path : inputs) readers.emplace_back(path);
    for (std::size_t i = 1; i < readers.size(); ++i) {
        if (!same_streams(readers[0].info().streams, readers[i].info().streams)) {
            throw std::runtime_error("trace merge: '" + inputs[i] +
                                     "' has a different stream table than '" +
                                     inputs[0] + "' (merge needs slices of one trace)");
        }
    }
    std::vector<serving::RequestSource> sources;
    sources.reserve(readers.size());
    for (auto& reader : readers) {
        sources.emplace_back([&reader](serving::Request& r) {
            TraceRecord rec;
            if (!reader.next(rec)) return false;
            r = to_request(rec);
            return true;
        });
    }
    Writer out(out_path, readers[0].info().streams);
    serving::merge_timeline(std::move(sources),
                            [&out](const serving::Request& r) { out.add(to_record(r)); });
    out.close();
}

} // namespace lotus::trace
