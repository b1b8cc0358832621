/**
 * @file
 * Run-report formatting: one call rendering a run's `obs::RunSummary` as
 * the latency/throughput text every example and experiment prints.
 */

#pragma once

#include <optional>
#include <string>

#include "core/deployment.h"
#include "engine/metrics.h"

namespace shiftpar::core {

/** Report content controls. */
struct ReportOptions
{
    /** Evaluate SLO attainment/goodput against this objective. */
    std::optional<engine::SloSpec> slo;

    /** Include an ASCII throughput timeline. */
    bool timeline = false;

    /** Timeline plot width, characters. */
    int plot_width = 72;
};

/**
 * Format the standard run report: deployment line, latency percentile
 * table (TTFT / TPOT / completion / wait), throughput and step-mode
 * counts, optional SLO section and timeline. Every number is read from
 * `obs::summarize_run(metrics, opts.slo)` — the record the JSON run report
 * writes — so the text and JSON reports of a run agree; only the timeline
 * reads the throughput bins directly.
 */
std::string format_report(const ResolvedDeployment& deployment,
                          const engine::Metrics& metrics,
                          const ReportOptions& opts = {});

} // namespace shiftpar::core
