#include "common/bench_common.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "obs/metrics_registry.h"
#include "sim/profiler.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace shiftpar::bench {

namespace {

/** Process-wide observability state armed by `init`. */
struct ObsState
{
    std::unique_ptr<obs::ChromeTraceWriter> trace;
    std::string trace_path;
    obs::ReportJson report;
    std::string report_path;
    bool report_enabled = true;
    bool report_path_forced = false;
    int jobs = util::ThreadPool::default_concurrency();
    bool profile = false;
    std::string metrics_path;

    /** `--cost-model` / `--kernel-coeffs` selection; applied to every
     *  deployment the binary runs only when a flag was given, so default
     *  invocations construct deployments exactly as before. */
    parallel::CostModelSpec cost;
    bool cost_forced = false;
};

/** Per-thread report override installed by the sweep runner. */
thread_local obs::ReportJson* tls_report = nullptr;

ObsState&
obs_state()
{
    static ObsState state;
    return state;
}

/** "Figure 7 — Bursty workload" -> "figure_7". */
std::string
slugify(const std::string& s)
{
    std::string slug;
    for (const char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            slug.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        } else if (!slug.empty() && slug.back() != '_') {
            slug.push_back('_');
        }
    }
    while (!slug.empty() && slug.back() == '_')
        slug.pop_back();
    return slug.empty() ? "report" : slug;
}

void
flush_outputs()
{
    ObsState& o = obs_state();
    if (o.trace && !o.trace_path.empty()) {
        o.trace->write_file(o.trace_path);
        std::printf("\ntrace: wrote %s (%zu events)\n", o.trace_path.c_str(),
                    o.trace->num_events());
    }
    // The self-observability registry rides along in the run report (and
    // the optional exposition file); an empty registry leaves both outputs
    // byte-identical to the pre-registry era.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    if (o.report_enabled && !registry.empty())
        o.report.set_metrics(registry.snapshot());
    if (o.report_enabled && o.report.num_runs() > 0 &&
        !o.report_path.empty()) {
        o.report.write_file(o.report_path);
        std::printf("report: wrote %s (%zu runs)\n", o.report_path.c_str(),
                    o.report.num_runs());
    }
    if (!o.metrics_path.empty()) {
        const auto parent =
            std::filesystem::path(o.metrics_path).parent_path();
        if (!parent.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(parent, ec);
        }
        std::ofstream os(o.metrics_path);
        if (!os) {
            fatal("cannot open metrics output file '" + o.metrics_path +
                  "'");
        }
        registry.write_prometheus(os);
        std::printf("metrics: wrote %s\n", o.metrics_path.c_str());
    }
}

/** Fold one run's cluster profile into this thread's metrics registry. */
void
record_profile(const sim::ClusterProfile& prof)
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::current();
    reg.counter_add("shiftpar_sim_events_fired_total", prof.events_fired);
    for (const auto& [kind, s] : prof.components) {
        reg.counter_add("shiftpar_sim_component_advances_total", s.advances,
                        {{"kind", kind}});
        reg.counter_add("shiftpar_sim_component_stalls_total", s.stalls,
                        {{"kind", kind}});
        reg.observe("shiftpar_sim_component_wall_seconds", s.wall_s,
                    {{"kind", kind}});
    }
    reg.observe("shiftpar_sim_run_wall_seconds", prof.run_wall_s);
    reg.observe("shiftpar_sim_event_wall_seconds", prof.event_wall_s);
    reg.observe("shiftpar_sim_events_per_second", prof.events_per_sec());
    reg.gauge_max("shiftpar_sim_queue_depth_high_water",
                  static_cast<double>(prof.queue_high_water));
    reg.counter_add("shiftpar_sim_heap_ops_total", prof.heap_pushes,
                    {{"op", "push"}});
    reg.counter_add("shiftpar_sim_heap_ops_total", prof.heap_pops,
                    {{"op", "pop"}});
    reg.counter_add("shiftpar_sim_heap_ops_total", prof.heap_cancels,
                    {{"op", "cancel"}});
    reg.counter_add("shiftpar_sim_ready_ops_total", prof.ready_pushes,
                    {{"op", "push"}});
    reg.counter_add("shiftpar_sim_ready_ops_total", prof.ready_pops,
                    {{"op", "pop"}});
    reg.counter_add("shiftpar_sim_ready_ops_total", prof.ready_skips,
                    {{"op", "skip"}});
    reg.counter_add("shiftpar_sim_ready_ops_total", prof.ready_rebuilds,
                    {{"op", "rebuild"}});
    reg.gauge_max("shiftpar_process_peak_rss_bytes",
                  static_cast<double>(util::peak_rss_bytes()));
}

} // namespace

void
init(int argc, char** argv)
{
    ObsState& o = obs_state();
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--trace") == 0 && i + 1 < argc) {
            o.trace = std::make_unique<obs::ChromeTraceWriter>();
            o.trace_path = argv[++i];
        } else if (std::strcmp(arg, "--report") == 0 && i + 1 < argc) {
            o.report_path = argv[++i];
            o.report_path_forced = true;
        } else if (std::strcmp(arg, "--no-report") == 0) {
            o.report_enabled = false;
        } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
            o.jobs = std::atoi(argv[++i]);
            if (o.jobs < 1)
                fatal("--jobs requires a positive worker count");
        } else if (std::strcmp(arg, "--profile") == 0) {
            o.profile = true;
        } else if (std::strcmp(arg, "--metrics-out") == 0 && i + 1 < argc) {
            o.metrics_path = argv[++i];
        } else if (std::strcmp(arg, "--cost-model") == 0 && i + 1 < argc) {
            o.cost.kind = model::parse_cost_model_kind(argv[++i]);
            o.cost_forced = true;
        } else if (std::strcmp(arg, "--kernel-coeffs") == 0 &&
                   i + 1 < argc) {
            o.cost.coeffs = hw::load_calibrated_coeffs(argv[++i]);
            o.cost.kind = model::CostModelKind::kKernel;
            o.cost_forced = true;
        } else {
            fatal(std::string("unknown argument '") + arg +
                  "' (expected --trace <path>, --report <path>, "
                  "--no-report, --jobs <n>, --profile, "
                  "--metrics-out <path>, --cost-model <roofline|kernel>, "
                  "--kernel-coeffs <path>)");
        }
    }
    // Construct the global registry (and obs_state above) before
    // registering the atexit flush: statics are destroyed in reverse
    // construction/registration order, so anything flush_outputs touches
    // must already exist here or it would be torn down first.
    obs::MetricsRegistry::global();
    std::atexit(flush_outputs);
}

obs::TraceSink*
trace()
{
    return obs_state().trace.get();
}

int
jobs()
{
    return obs_state().jobs;
}

bool
profile_enabled()
{
    return obs_state().profile;
}

obs::ReportJson&
report()
{
    return tls_report ? *tls_report : obs_state().report;
}

void
record_run(const std::string& name, const engine::Metrics& metrics,
           const fault::FaultStats& faults,
           const engine::OverloadStats& overload)
{
    if (obs_state().report_enabled)
        report().add_run(name, metrics, {}, {}, faults, overload);
}

void
set_run_label(const std::string& label)
{
    ObsState& o = obs_state();
    if (o.trace)
        o.trace->set_run_label(label);
}

const std::vector<parallel::Strategy>&
comparison_strategies()
{
    static const std::vector<parallel::Strategy> strategies = {
        parallel::Strategy::kDp,
        parallel::Strategy::kTp,
        parallel::Strategy::kSp,
        parallel::Strategy::kShift,
    };
    return strategies;
}

core::Deployment
standard_deployment(const model::ModelConfig& model,
                    parallel::Strategy strategy)
{
    core::Deployment d;
    d.model = model;
    d.node = hw::h200_node();
    d.strategy = strategy;
    const ObsState& o = obs_state();
    if (o.cost_forced)
        d.cost = o.cost;
    return d;
}

RunResult
run_strategy(const model::ModelConfig& model, parallel::Strategy strategy,
             const std::vector<engine::RequestSpec>& workload)
{
    return run_deployment_named(parallel::strategy_name(strategy),
                                standard_deployment(model, strategy),
                                workload);
}

RunResult
run_deployment_named(const std::string& name, const core::Deployment& d,
                     const std::vector<engine::RequestSpec>& workload)
{
    ObsState& o = obs_state();
    core::Deployment traced = d;
    if (o.cost_forced)
        traced.cost = o.cost;
    if (o.trace) {
        o.trace->set_run_label(name);
        traced.trace = o.trace.get();
    }
    sim::ClusterProfile prof;
    if (o.profile)
        traced.profile = &prof;
    RunResult result;
    result.name = name;
    result.resolved = core::resolve(traced);
    const auto router = core::build(traced, result.resolved);
    result.metrics = router->run_workload(workload);
    if (o.profile)
        record_profile(prof);
    if (o.report_enabled) {
        obs::RunDeploymentInfo info;
        info.description = result.resolved.describe();
        info.sp = result.resolved.base.sp;
        info.tp = result.resolved.base.tp;
        info.replicas = result.resolved.replicas;
        info.shift_threshold = result.resolved.shift_threshold;
        if (result.resolved.cost_kind != model::CostModelKind::kRoofline) {
            info.cost_model =
                model::cost_model_kind_name(result.resolved.cost_kind);
        }
        report().add_run(name, result.metrics, info, {},
                         router->fault_stats(), router->overload_stats());
    }
    return result;
}

LatencyProbe
min_latency(const model::ModelConfig& model, parallel::Strategy strategy,
            std::int64_t prompt, std::int64_t output)
{
    // One isolated request: no queueing, pure engine latency.
    const std::vector<engine::RequestSpec> one = {{0.0, prompt, output}};
    const RunResult run = run_strategy(model, strategy, one);
    SP_ASSERT(run.metrics.requests().size() == 1);
    const auto& rec = run.metrics.requests().front();
    return {rec.ttft, rec.tpot, rec.completion};
}

double
peak_throughput(const model::ModelConfig& model, parallel::Strategy strategy,
                std::int64_t prompt, std::int64_t output, int num_requests)
{
    const auto workload =
        workload::uniform_batch(num_requests, prompt, output);
    const RunResult run = run_strategy(model, strategy, workload);
    return run.metrics.mean_throughput();
}

void
print_banner(const std::string& figure, const std::string& title)
{
    std::printf("\n================================================================\n");
    std::printf("%s — %s\n", figure.c_str(), title.c_str());
    std::printf("================================================================\n");
    ObsState& o = obs_state();
    o.report.set_title(figure + " — " + title);
    if (!o.report_path_forced)
        o.report_path = results_path(slugify(figure) + ".report.json");
}

std::string
results_path(const std::string& filename)
{
    return "bench_results/" + filename;
}

namespace detail {

void
set_thread_report(obs::ReportJson* buffer)
{
    tls_report = buffer;
}

bool
report_enabled()
{
    return obs_state().report_enabled;
}

void
set_jobs(int jobs)
{
    SP_ASSERT(jobs >= 1);
    obs_state().jobs = jobs;
}

} // namespace detail

} // namespace shiftpar::bench
