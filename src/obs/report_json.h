/**
 * @file
 * Machine-readable JSON run reports.
 *
 * Every experiment driver (the `bench_*` binaries, perfbench) records its
 * runs into one schema-versioned document that `tools/plot_results.py`
 * (and any external analysis) can consume without per-figure parsing
 * code.
 *
 * Schema (`shiftpar.run_report`, version 1):
 *
 * {
 *   "schema": "shiftpar.run_report",
 *   "version": 1,
 *   "title": "<figure or experiment title>",
 *   "runs": [
 *     {
 *       "name": "<series name, e.g. strategy>",
 *       "deployment": {"description": "...", "sp": 4, "tp": 2,
 *                      "replicas": 1, "shift_threshold": 1536},
 *       "metrics": {                 // the run's RunSummary
 *         "requests": N, "total_tokens": N, "duration_s": T,
 *         "mean_throughput_tok_s": R, "peak_throughput_tok_s": R,
 *         "sp_steps": N, "tp_steps": N, "preemptions": null | N,
 *         "ttft_s":       {"p50":..,"p90":..,"p99":..,"mean":..,
 *                          "min":..,"max":..,"count":..},
 *         "tpot_s":       {...}, "completion_s": {...}, "wait_s": {...},
 *         "slo": null | {"ttft_s":..,"tpot_s":..,"attainment":..,
 *                        "goodput_tok_s":..}
 *       },
 *       "faults": {"failures": N, "recoveries": N, "straggles": N,
 *                  "degrades": N, "dropped_requests": N, "retries": N,
 *                  "lost_requests": N, "shed_requests": N}
 *     }, ...
 *   ]
 * }
 *
 * The "faults" key is emitted only for runs whose replay counted a fault
 * (`FaultStats::any()`): the bench drivers pass the router's
 * `fault_stats()` for every deployment they run, and `add_run` drops
 * all-zero counters, so fault-free runs keep their exact bytes (still
 * version 1: purely additive). The "overload" key follows the same rule
 * (`OverloadStats::any()`, from the router's `overload_stats()`) for
 * request-lifecycle runs (deadlines, client cancellation, hedged retries,
 * circuit breakers, graceful drain):
 *
 *       "overload": {"completed": N, "expired": N, "cancelled": N,
 *                    "hedges": N, "hedge_wins": N, "hedge_losses": N,
 *                    "breaker_opens": N, "breaker_probes": N,
 *                    "breaker_closes": N, "drains": N,
 *                    "drained_requests": N, "drain_resumes": N}
 *
 * A top-level "metrics" key (the process self-observability snapshot from
 * `obs::MetricsRegistry`, own "version" inside) follows the same additive
 * rule: emitted only when `set_metrics` attached a non-empty snapshot.
 *
 *   "metrics": {
 *     "version": 1,
 *     "counters":   [{"name": "...", "labels": {...}, "value": N}, ...],
 *     "gauges":     [{"name": "...", "labels": {...}, "value": V}, ...],
 *     "histograms": [{"name": "...", "labels": {...}, "count": N,
 *                     "sum":..,"mean":..,"min":..,"max":..,
 *                     "p50":..,"p90":..,"p99":..}, ...]
 *   }
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "engine/metrics.h"
#include "engine/overload.h"
#include "fault/fault_schedule.h"
#include "obs/metrics_registry.h"
#include "util/histogram.h"

namespace shiftpar::obs {

/** Current schema version of the emitted document. */
constexpr int kReportSchemaVersion = 1;

/** Schema identifier of the emitted document. */
constexpr const char* kReportSchemaName = "shiftpar.run_report";

/** Deployment facts attached to one run (plain data; no core dependency). */
struct RunDeploymentInfo
{
    std::string description;
    int sp = 0;
    int tp = 0;
    int replicas = 0;
    std::int64_t shift_threshold = 0;

    /**
     * Non-default cost model the run was priced with ("kernel"); empty for
     * the roofline default and then omitted from the document, so existing
     * reports keep their exact bytes.
     */
    std::string cost_model;
};

/**
 * The numbers one run is reported by: its size, throughput, step-mode
 * split, latency distributions and optional SLO outcome. Built only by
 * `summarize_run`; the JSON "metrics" block and the text report
 * (`core::format_report`) both render this record, so they cannot
 * disagree.
 */
struct RunSummary
{
    std::int64_t requests = 0;
    std::int64_t total_tokens = 0;
    double duration = 0.0;
    double mean_throughput = 0.0;
    double peak_throughput = 0.0;
    std::int64_t sp_steps = 0;
    std::int64_t tp_steps = 0;
    std::int64_t preemptions = 0;
    util::HistogramSummary ttft, tpot, completion, wait;
    std::optional<engine::SloSpec> slo;
    double slo_attainment = 0.0;  ///< 0 unless `slo` is set
    double goodput = 0.0;         ///< tok/s; 0 unless `slo` is set
};

/** Summarize a run's merged metrics, evaluating `slo` when given. */
RunSummary summarize_run(const engine::Metrics& metrics,
                         const std::optional<engine::SloSpec>& slo = {});

/**
 * Accumulates named runs and serializes the report document.
 *
 * Thread-safe: `add_run`/`merge_from` lock an internal mutex, so parallel
 * sweep workers can record into per-point buffers that the sweep runner
 * merges into a shared report in submission order (keeping the document
 * byte-identical to a sequential sweep).
 */
class ReportJson
{
  public:
    /** @param title Human title (the figure/experiment name). */
    explicit ReportJson(std::string title = "");

    void
    set_title(const std::string& title)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        title_ = title;
    }

    /**
     * Append one run.
     *
     * @param name Series name (strategy, sweep point, ...).
     * @param metrics The run's merged metrics.
     * @param deployment Optional resolved-deployment facts.
     * @param slo Optional SLO to evaluate attainment/goodput against.
     * @param faults The replay's fault counters; the run carries a
     *        "faults" block only when one of them is non-zero.
     * @param overload The replay's request-lifecycle counters; an
     *        "overload" block only when `overload.any()`.
     */
    void add_run(const std::string& name, const engine::Metrics& metrics,
                 const std::optional<RunDeploymentInfo>& deployment = {},
                 const std::optional<engine::SloSpec>& slo = {},
                 const fault::FaultStats& faults = {},
                 const engine::OverloadStats& overload = {});

    /**
     * Move every run of `other` to the end of this report, preserving
     * their order. `other` is left empty; its title is ignored (as is its
     * metrics snapshot — the process-wide registry is snapshotted once by
     * whoever owns the shared report).
     */
    void merge_from(ReportJson&& other);

    /**
     * Attach the self-observability snapshot rendered as the top-level
     * "metrics" section. Empty snapshots are dropped, keeping the document
     * byte-identical to reports written before this section existed.
     */
    void set_metrics(MetricsSnapshot snapshot);

    /** @return number of accumulated runs. */
    std::size_t
    num_runs() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return runs_.size();
    }

    /** Serialize the document (pretty-printed). */
    void write(std::ostream& os) const;

    /** Serialize to `path`; fatal() when the file cannot be opened. */
    void write_file(const std::string& path) const;

  private:
    struct Run
    {
        std::string name;
        std::optional<RunDeploymentInfo> deployment;
        RunSummary summary;
        std::optional<fault::FaultStats> faults;
        std::optional<engine::OverloadStats> overload;
    };

    mutable std::mutex mutex_;
    std::string title_;                        // shiftlint-guarded(mutex_)
    std::vector<Run> runs_;                    // shiftlint-guarded(mutex_)
    std::optional<MetricsSnapshot> metrics_;   // shiftlint-guarded(mutex_)
};

} // namespace shiftpar::obs
