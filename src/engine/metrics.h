/**
 * @file
 * Experiment telemetry: per-request records, per-step traces, aggregates.
 *
 * `Metrics` stores two logs and nothing else: one record per finished
 * request and one per engine step. Every aggregate the paper reports is a
 * fold over those logs in recording order: TTFT / TPOT / completion
 * distributions (Figs. 9-11), time-binned combined throughput and its peak
 * (Table 5, Fig. 7), and cost-component totals (Fig. 15). `Metrics::merge`
 * combines DP replicas by concatenating their logs.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "engine/request.h"
#include "parallel/config.h"
#include "parallel/perf_model.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace shiftpar::engine {

/** Final record of one completed request. */
struct RequestRecord
{
    RequestId id = 0;
    double arrival = 0.0;
    std::int64_t prompt_tokens = 0;
    std::int64_t output_tokens = 0;
    double ttft = 0.0;
    double tpot = 0.0;
    double completion = 0.0;
    /** Queueing delay: first scheduling minus arrival. */
    double wait = 0.0;
    int preemptions = 0;
};

/** Record of one engine iteration. */
struct StepRecord
{
    double start = 0.0;
    double end = 0.0;
    std::int64_t batched_tokens = 0;  ///< Alg. 2 decision input
    std::int64_t num_seqs = 0;
    parallel::ParallelConfig cfg;     ///< configuration executed
    parallel::StepTiming timing;
};

/** Service-level objective on per-request latencies. */
struct SloSpec
{
    /** Maximum acceptable TTFT, seconds. */
    double ttft = 2.0;

    /** Maximum acceptable TPOT, seconds. */
    double tpot = 0.05;
};

/**
 * Recorded results of one run: the request and step logs. Recording only
 * appends; each aggregate accessor folds a log in vector order and returns
 * a fresh value, so callers that read one in a loop bind it once.
 */
class Metrics
{
  public:
    /** @param throughput_bin Width of throughput time bins, seconds. */
    explicit Metrics(double throughput_bin = 1.0);

    /** Record a finished request. */
    void on_request_finished(const Request& r);

    /** Record an externally assembled request result (e.g. a request that
     *  spanned multiple engines in a disaggregated deployment). */
    void add_record(const RequestRecord& rec);

    /** Record one engine step. */
    void on_step(const StepRecord& step);

    /**
     * Append another engine's logs to this one (DP merge). Both must use
     * the same throughput bin width. Every aggregate of the result equals,
     * bit for bit, that of one `Metrics` fed this one's records and then
     * `other`'s.
     */
    void merge(const Metrics& other);

    /** Reserve room for `requests` request and `steps` step records. */
    void reserve(std::size_t requests, std::size_t steps);

    /** @return per-request records, in completion order. */
    const std::vector<RequestRecord>& requests() const { return requests_; }

    /** @return per-step records, in time order (per engine). */
    const std::vector<StepRecord>& steps() const { return steps_; }

    /** @return the width of throughput time bins, seconds. */
    double bin_seconds() const { return throughput_bin_; }

    /**
     * TTFT distribution, seconds. Latency distributions are log-bucketed
     * histograms folded over the request log: quantiles exact to within
     * 0.5% relative error, moments exact.
     */
    util::Histogram ttft() const;

    /** TPOT distribution over requests with more than one output token,
     *  seconds. */
    util::Histogram tpot() const;

    /** Completion-time distribution, seconds. */
    util::Histogram completion() const;

    /** Queueing-delay distribution, seconds. */
    util::Histogram wait() const;

    /** Combined (prompt+output) token throughput timeline, tokens/s:
     *  each step's tokens land in the bin holding its end time. */
    TimeSeries throughput() const;

    /** @return total tokens processed (prompt + output). */
    std::int64_t total_tokens() const;

    /** @return latest step end time across merged engines, seconds. */
    double end_time() const;

    /** @return mean combined throughput over [0, end_time], tokens/s. */
    double mean_throughput() const;

    /**
     * Fraction of requests meeting both SLO bounds (DistServe-style
     * goodput numerator); 0 when no requests finished.
     */
    double slo_attainment(const SloSpec& slo) const;

    /**
     * Goodput: combined token throughput counting only SLO-satisfying
     * requests' tokens, tokens/s.
     */
    double goodput(const SloSpec& slo) const;

    /** @return sum of per-step cost components across all steps. */
    parallel::StepTiming component_totals() const;

    /** @return number of steps executed with SP > 1 (base config). */
    std::int64_t sp_steps() const;

    /** @return number of steps executed with SP == 1 (full TP / shift). */
    std::int64_t tp_steps() const;

  private:
    std::vector<RequestRecord> requests_;
    std::vector<StepRecord> steps_;
    double throughput_bin_;
};

} // namespace shiftpar::engine
