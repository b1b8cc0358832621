#include "engine/metrics.h"

#include <algorithm>

#include "util/logging.h"

namespace shiftpar::engine {

namespace {

/**
 * Histogram of one latency field over the request log, in log order;
 * `multi_token_only` skips requests with at most one output token (they
 * have no inter-token gap).
 */
util::Histogram
fold_latency(const std::vector<RequestRecord>& log,
             double RequestRecord::*field, bool multi_token_only = false)
{
    util::Histogram h;
    for (const RequestRecord& rec : log) {
        if (!multi_token_only || rec.output_tokens > 1)
            h.add(rec.*field);
    }
    return h;
}

/** Sum of one field over the step log, added in log order. */
template <class T>
T
sum_steps(const std::vector<StepRecord>& log, T StepRecord::*field)
{
    T sum{};
    for (const StepRecord& step : log)
        sum += step.*field;
    return sum;
}

} // namespace

Metrics::Metrics(double throughput_bin)
    : throughput_bin_(throughput_bin)
{
    SP_ASSERT(throughput_bin > 0.0);
}

void
Metrics::on_request_finished(const Request& r)
{
    SP_ASSERT(r.done() && r.finished >= 0.0);
    RequestRecord rec;
    rec.id = r.id;
    rec.arrival = r.spec.arrival;
    rec.prompt_tokens = r.spec.prompt_tokens;
    rec.output_tokens = r.spec.output_tokens;
    rec.ttft = r.ttft();
    rec.tpot = r.tpot();
    rec.completion = r.completion();
    rec.wait = r.first_scheduled - r.spec.arrival;
    rec.preemptions = r.preemptions;
    add_record(rec);
}

void
Metrics::add_record(const RequestRecord& rec)
{
    requests_.push_back(rec);
}

void
Metrics::on_step(const StepRecord& step)
{
    SP_ASSERT(step.end >= step.start && step.start >= 0.0,
              "malformed step record");
    steps_.push_back(step);
}

void
Metrics::merge(const Metrics& other)
{
    // Appending a vector to itself is undefined.
    SP_ASSERT(&other != this, "cannot merge a Metrics into itself");
    SP_ASSERT(other.throughput_bin_ == throughput_bin_,
              "cannot merge Metrics with different throughput bin widths");
    requests_.insert(requests_.end(), other.requests_.begin(),
                     other.requests_.end());
    steps_.insert(steps_.end(), other.steps_.begin(), other.steps_.end());
}

void
Metrics::reserve(std::size_t requests, std::size_t steps)
{
    requests_.reserve(requests);
    steps_.reserve(steps);
}

util::Histogram
Metrics::ttft() const
{
    return fold_latency(requests_, &RequestRecord::ttft);
}

util::Histogram
Metrics::tpot() const
{
    return fold_latency(requests_, &RequestRecord::tpot,
                        /*multi_token_only=*/true);
}

util::Histogram
Metrics::completion() const
{
    return fold_latency(requests_, &RequestRecord::completion);
}

util::Histogram
Metrics::wait() const
{
    return fold_latency(requests_, &RequestRecord::wait);
}

TimeSeries
Metrics::throughput() const
{
    TimeSeries series(throughput_bin_);
    for (const StepRecord& step : steps_)
        series.add(step.end, static_cast<double>(step.batched_tokens));
    return series;
}

std::int64_t
Metrics::total_tokens() const
{
    return sum_steps(steps_, &StepRecord::batched_tokens);
}

double
Metrics::end_time() const
{
    double end = 0.0;
    for (const StepRecord& step : steps_)
        end = std::max(end, step.end);
    return end;
}

parallel::StepTiming
Metrics::component_totals() const
{
    return sum_steps(steps_, &StepRecord::timing);
}

std::int64_t
Metrics::sp_steps() const
{
    return std::count_if(steps_.begin(), steps_.end(),
                         [](const StepRecord& s) { return s.cfg.sp > 1; });
}

std::int64_t
Metrics::tp_steps() const
{
    return static_cast<std::int64_t>(steps_.size()) - sp_steps();
}

double
Metrics::mean_throughput() const
{
    const double end = end_time();
    return end > 0.0 ? static_cast<double>(total_tokens()) / end : 0.0;
}

double
Metrics::slo_attainment(const SloSpec& slo) const
{
    if (requests_.empty())
        return 0.0;
    std::size_t ok = 0;
    for (const auto& r : requests_) {
        const bool tpot_ok = r.output_tokens <= 1 || r.tpot <= slo.tpot;
        ok += r.ttft <= slo.ttft && tpot_ok;
    }
    return static_cast<double>(ok) / static_cast<double>(requests_.size());
}

double
Metrics::goodput(const SloSpec& slo) const
{
    const double end = end_time();
    if (end <= 0.0)
        return 0.0;
    double tokens = 0.0;
    for (const auto& r : requests_) {
        const bool tpot_ok = r.output_tokens <= 1 || r.tpot <= slo.tpot;
        if (r.ttft <= slo.ttft && tpot_ok)
            tokens += static_cast<double>(r.prompt_tokens +
                                          r.output_tokens);
    }
    return tokens / end;
}

} // namespace shiftpar::engine
