#include "obs/report_json.h"

#include <filesystem>
#include <fstream>

#include "util/json.h"
#include "util/logging.h"

namespace shiftpar::obs {

RunSummary
summarize_run(const engine::Metrics& metrics,
              const std::optional<engine::SloSpec>& slo)
{
    RunSummary s;
    s.requests = static_cast<std::int64_t>(metrics.requests().size());
    s.total_tokens = metrics.total_tokens();
    s.duration = metrics.end_time();
    s.mean_throughput = metrics.mean_throughput();
    s.peak_throughput = metrics.throughput().peak_rate();
    s.sp_steps = metrics.sp_steps();
    s.tp_steps = metrics.tp_steps();
    for (const auto& rec : metrics.requests())
        s.preemptions += rec.preemptions;
    s.ttft = metrics.ttft().summary();
    s.tpot = metrics.tpot().summary();
    s.completion = metrics.completion().summary();
    s.wait = metrics.wait().summary();
    s.slo = slo;
    if (slo) {
        s.slo_attainment = metrics.slo_attainment(*slo);
        s.goodput = metrics.goodput(*slo);
    }
    return s;
}

ReportJson::ReportJson(std::string title) : title_(std::move(title)) {}

void
ReportJson::add_run(const std::string& name, const engine::Metrics& metrics,
                    const std::optional<RunDeploymentInfo>& deployment,
                    const std::optional<engine::SloSpec>& slo,
                    const fault::FaultStats& faults,
                    const engine::OverloadStats& overload)
{
    Run run{name, deployment, summarize_run(metrics, slo), {}, {}};
    // Blocks appear only when the replay actually injected a fault or
    // exercised a lifecycle feature, so quiet runs keep their exact bytes.
    if (faults.any())
        run.faults = faults;
    if (overload.any())
        run.overload = overload;
    std::lock_guard<std::mutex> lock(mutex_);
    runs_.push_back(std::move(run));
}

void
ReportJson::merge_from(ReportJson&& other)
{
    std::scoped_lock lock(mutex_, other.mutex_);
    for (auto& run : other.runs_)
        runs_.push_back(std::move(run));
    other.runs_.clear();
}

void
ReportJson::set_metrics(MetricsSnapshot snapshot)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (snapshot.empty())
        metrics_.reset();
    else
        metrics_ = std::move(snapshot);
}

void
ReportJson::write(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    util::JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("schema", kReportSchemaName);
    w.kv("version", kReportSchemaVersion);
    w.kv("title", title_);
    w.key("runs").begin_array();
    for (const auto& run : runs_) {
        w.begin_object();
        w.kv("name", run.name);
        w.key("deployment");
        if (run.deployment) {
            w.begin_object();
            w.kv("description", run.deployment->description);
            w.kv("sp", run.deployment->sp);
            w.kv("tp", run.deployment->tp);
            w.kv("replicas", run.deployment->replicas);
            w.kv("shift_threshold", run.deployment->shift_threshold);
            if (!run.deployment->cost_model.empty())
                w.kv("cost_model", run.deployment->cost_model);
            w.end_object();
        } else {
            w.null();
        }
        const RunSummary& m = run.summary;
        w.key("metrics").begin_object();
        w.kv("requests", m.requests);
        w.kv("total_tokens", m.total_tokens);
        w.kv("duration_s", m.duration);
        w.kv("mean_throughput_tok_s", m.mean_throughput);
        w.kv("peak_throughput_tok_s", m.peak_throughput);
        w.kv("sp_steps", m.sp_steps);
        w.kv("tp_steps", m.tp_steps);
        w.kv("preemptions", m.preemptions);
        const auto latency = [&](const char* key,
                                 const util::HistogramSummary& h) {
            w.key(key).begin_object();
            w.kv("p50", h.p50).kv("p90", h.p90).kv("p99", h.p99);
            w.kv("mean", h.mean).kv("min", h.min).kv("max", h.max);
            w.kv("count", h.count);
            w.end_object();
        };
        latency("ttft_s", m.ttft);
        latency("tpot_s", m.tpot);
        latency("completion_s", m.completion);
        latency("wait_s", m.wait);
        w.key("slo");
        if (m.slo) {
            w.begin_object();
            w.kv("ttft_s", m.slo->ttft);
            w.kv("tpot_s", m.slo->tpot);
            w.kv("attainment", m.slo_attainment);
            w.kv("goodput_tok_s", m.goodput);
            w.end_object();
        } else {
            w.null();
        }
        w.end_object();  // metrics
        if (run.faults) {
            w.key("faults").begin_object();
            w.kv("failures", run.faults->failures);
            w.kv("recoveries", run.faults->recoveries);
            w.kv("straggles", run.faults->straggles);
            w.kv("degrades", run.faults->degrades);
            w.kv("dropped_requests", run.faults->dropped);
            w.kv("retries", run.faults->retries);
            w.kv("lost_requests", run.faults->lost);
            w.kv("shed_requests", run.faults->shed);
            w.end_object();
        }
        if (run.overload) {
            w.key("overload").begin_object();
            w.kv("completed", run.overload->completed);
            w.kv("expired", run.overload->expired);
            w.kv("cancelled", run.overload->cancelled);
            w.kv("hedges", run.overload->hedges);
            w.kv("hedge_wins", run.overload->hedge_wins);
            w.kv("hedge_losses", run.overload->hedge_losses);
            w.kv("breaker_opens", run.overload->breaker_opens);
            w.kv("breaker_probes", run.overload->breaker_probes);
            w.kv("breaker_closes", run.overload->breaker_closes);
            w.kv("drains", run.overload->drains);
            w.kv("drained_requests", run.overload->drained);
            w.kv("drain_resumes", run.overload->drain_resumes);
            w.end_object();
        }
        w.end_object();  // run
    }
    w.end_array();
    if (metrics_) {
        const auto labels = [&](const MetricLabels& ls) {
            w.key("labels").begin_object();
            for (const auto& [k, v] : ls)
                w.kv(k, v);
            w.end_object();
        };
        w.key("metrics").begin_object();
        w.kv("version", kMetricsSchemaVersion);
        w.key("counters").begin_array();
        for (const auto& c : metrics_->counters) {
            w.begin_object();
            w.kv("name", c.name);
            labels(c.labels);
            w.kv("value", c.value);
            w.end_object();
        }
        w.end_array();
        w.key("gauges").begin_array();
        for (const auto& g : metrics_->gauges) {
            w.begin_object();
            w.kv("name", g.name);
            labels(g.labels);
            w.kv("value", g.value);
            w.end_object();
        }
        w.end_array();
        w.key("histograms").begin_array();
        for (const auto& h : metrics_->histograms) {
            w.begin_object();
            w.kv("name", h.name);
            labels(h.labels);
            w.kv("count", h.count);
            w.kv("sum", h.sum).kv("mean", h.mean);
            w.kv("min", h.min).kv("max", h.max);
            w.kv("p50", h.p50).kv("p90", h.p90).kv("p99", h.p99);
            w.end_object();
        }
        w.end_array();
        w.end_object();  // metrics
    }
    w.end_object();
    os << "\n";
}

void
ReportJson::write_file(const std::string& path) const
{
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    std::ofstream os(path);
    if (!os)
        fatal("cannot open report output file '" + path + "'");
    write(os);
}

} // namespace shiftpar::obs
