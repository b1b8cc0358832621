#include "core/report.h"

#include <sstream>

#include "obs/report_json.h"
#include "util/ascii_plot.h"
#include "util/table.h"
#include "util/units.h"

namespace shiftpar::core {

std::string
format_report(const ResolvedDeployment& deployment,
              const engine::Metrics& metrics, const ReportOptions& opts)
{
    const obs::RunSummary run = obs::summarize_run(metrics, opts.slo);
    std::ostringstream os;
    os << "deployment: " << deployment.describe() << "\n";

    Table table({"metric", "p50", "p90", "p99", "mean"});
    const auto row = [&](const char* name, const util::HistogramSummary& h,
                         double scale, int prec) {
        table.add_row({name, Table::fmt(h.p50 * scale, prec),
                       Table::fmt(h.p90 * scale, prec),
                       Table::fmt(h.p99 * scale, prec),
                       Table::fmt(h.mean * scale, prec)});
    };
    row("TTFT (ms)", run.ttft, 1e3, 1);
    row("TPOT (ms)", run.tpot, 1e3, 2);
    row("completion (s)", run.completion, 1.0, 2);
    row("queue wait (s)", run.wait, 1.0, 2);
    os << table.render();

    os << "throughput: "
       << Table::fmt_count(static_cast<long long>(run.mean_throughput))
       << " tok/s mean, "
       << Table::fmt_count(static_cast<long long>(run.peak_throughput))
       << " tok/s peak over " << Table::fmt(run.duration, 1) << " s\n";
    os << "steps: " << Table::fmt_count(run.sp_steps + run.tp_steps)
       << " total (" << Table::fmt_count(run.sp_steps) << " base/SP mode, "
       << Table::fmt_count(run.tp_steps) << " shift/TP mode)\n";

    if (run.slo) {
        os << "SLO (TTFT<=" << Table::fmt(run.slo->ttft, 2) << "s, TPOT<="
           << Table::fmt(to_ms(run.slo->tpot), 0) << "ms): "
           << Table::fmt(100.0 * run.slo_attainment, 1) << "% attainment, "
           << Table::fmt_count(static_cast<long long>(run.goodput))
           << " tok/s goodput\n";
    }

    const TimeSeries throughput = metrics.throughput();
    if (opts.timeline && throughput.num_bins() > 1) {
        PlotSeries series{"combined tok/s", {}};
        for (std::size_t b = 0; b < throughput.num_bins(); ++b)
            series.values.push_back(throughput.rate(b));
        LinePlotOptions plot;
        plot.width = opts.plot_width;
        plot.height = 10;
        plot.y_label = "throughput (tok/s)";
        plot.x_label = "time ->";
        os << "\n" << render_line_plot({series}, plot);
    }
    return os.str();
}

} // namespace shiftpar::core
