#include "util/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace shiftpar::util {

Histogram::Histogram(double relative_error)
    : relative_error_(relative_error),
      gamma_((1.0 + relative_error) / (1.0 - relative_error)),
      log_gamma_(std::log(gamma_))
{
    SP_ASSERT(relative_error > 0.0 && relative_error < 0.5,
              "relative error must be in (0, 0.5)");
}

int
Histogram::bucket_index(double value) const
{
    // Bucket i covers (gamma^(i-1), gamma^i]; ceil keeps the upper edge.
    return static_cast<int>(std::ceil(std::log(value) / log_gamma_ - 1e-12));
}

double
Histogram::bucket_value(int index) const
{
    // Geometric midpoint of (gamma^(i-1), gamma^i]: 2*gamma^i/(gamma+1),
    // which is within relative_error of every value in the bucket.
    return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void
Histogram::add(double value)
{
    if (!(value > 0.0))
        value = 0.0;  // clamp negatives/NaN: these are latency samples
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    sum_sq_ += value * value;
    if (value < kMinTrackable) {
        ++zero_count_;
        return;
    }
    ++buckets_[bucket_index(value)];
}

void
Histogram::merge(const Histogram& other)
{
    SP_ASSERT(relative_error_ == other.relative_error_,
              "merging histograms with different error bounds");
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
    zero_count_ += other.zero_count_;
    for (const auto& [index, n] : other.buckets_)
        buckets_[index] += n;
}

double
Histogram::mean() const
{
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::min() const
{
    return count_ > 0 ? min_ : 0.0;
}

double
Histogram::max() const
{
    return count_ > 0 ? max_ : 0.0;
}

double
Histogram::stddev() const
{
    if (count_ < 2)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
Histogram::percentile(double p) const
{
    SP_ASSERT(p >= 0.0 && p <= 100.0);
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return min_;
    if (p >= 100.0)
        return max_;
    // Rank of the target order statistic, 1-based ceil like HdrHistogram.
    const double target =
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count_)));
    std::uint64_t seen = zero_count_;
    if (static_cast<double>(seen) >= target)
        return 0.0;
    for (const auto& [index, n] : buckets_) {
        seen += n;
        if (static_cast<double>(seen) >= target) {
            // Clamp into the exact observed range so endpoint buckets do
            // not report values outside [min, max].
            return std::clamp(bucket_value(index), min_, max_);
        }
    }
    return max_;  // unreachable when counts are consistent
}

void
Histogram::clear()
{
    buckets_.clear();
    zero_count_ = 0;
    count_ = 0;
    sum_ = 0.0;
    sum_sq_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

HistogramSummary
Histogram::summary() const
{
    return {static_cast<std::int64_t>(count_), sum(), mean(), min(), max(),
            percentile(50), percentile(90), percentile(99)};
}

} // namespace shiftpar::util
