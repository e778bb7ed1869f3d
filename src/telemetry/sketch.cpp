#include "telemetry/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/recorder.hpp"

namespace lotus::telemetry {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

HistSketch::HistSketch(double relative_accuracy) : alpha_(relative_accuracy) {
    if (!(relative_accuracy > 0.0) || !(relative_accuracy < 1.0)) {
        throw std::invalid_argument(
            "HistSketch: relative_accuracy must be in (0, 1)");
    }
    gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
    inv_log_gamma_ = 1.0 / std::log(gamma_);
    min_ = kInf;
    max_ = -kInf;
}

double HistSketch::min() const noexcept { return total_ == 0 ? 0.0 : min_; }
double HistSketch::max() const noexcept { return total_ == 0 ? 0.0 : max_; }

void HistSketch::add(double value, std::uint64_t weight) {
    if (weight == 0) return;
    if (std::isnan(value)) return; // unorderable; refuse silently
    total_ += weight;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    if (value <= kLowThreshold) {
        low_count_ += weight;
        return;
    }
    const auto index = static_cast<std::int32_t>(
        std::ceil(std::log(value) * inv_log_gamma_));
    buckets_[index] += weight;
}

void HistSketch::merge(const HistSketch& other) {
    if (alpha_ != other.alpha_) {
        throw std::invalid_argument(
            "HistSketch::merge: relative_accuracy mismatch");
    }
    if (other.total_ == 0) return;
    total_ += other.total_;
    low_count_ += other.low_count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (const auto& [index, count] : other.buckets_) {
        buckets_[index] += count;
    }
}

double HistSketch::representative(std::int32_t index) const {
    // Geometric midpoint of (gamma^(i-1), gamma^i]: relative error is
    // exactly alpha at both bucket edges.
    return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

double HistSketch::quantile(double q) const {
    if (total_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // 1-based target rank; matches the order statistic util::percentile
    // anchors its interpolation on.
    const auto n = total_;
    auto rank = static_cast<std::uint64_t>(
                    std::floor(q * static_cast<double>(n - 1))) +
                1;
    rank = std::min(rank, n);

    double estimate = 0.0;
    if (rank <= low_count_) {
        estimate = 0.0;
    } else {
        std::uint64_t cumulative = low_count_;
        estimate = max_; // walk exhausts only via fp-edge paranoia
        for (const auto& [index, count] : buckets_) {
            cumulative += count;
            if (cumulative >= rank) {
                estimate = representative(index);
                break;
            }
        }
    }
    return std::clamp(estimate, min_, max_);
}

std::string HistSketch::json() const {
    std::string out = "{\"alpha\":" + jnum(alpha_);
    out += ",\"count\":" + std::to_string(total_);
    out += ",\"low\":" + std::to_string(low_count_);
    out += ",\"min\":" + jnum(min());
    out += ",\"max\":" + jnum(max());
    out += ",\"p50\":" + jnum(quantile(0.50));
    out += ",\"p95\":" + jnum(quantile(0.95));
    out += ",\"p99\":" + jnum(quantile(0.99));
    out += ",\"buckets\":[";
    bool first = true;
    for (const auto& [index, count] : buckets_) {
        if (!first) out += ",";
        first = false;
        out += '[';
        out += std::to_string(index);
        out += ',';
        out += std::to_string(count);
        out += ']';
    }
    out += "]}";
    return out;
}

} // namespace lotus::telemetry
