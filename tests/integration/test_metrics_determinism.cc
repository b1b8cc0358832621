/**
 * @file
 * Determinism tests for the metrics registry under the sweep runner: the
 * aggregated registry — and therefore the report's `metrics` section and
 * the Prometheus exposition — is byte-identical at `--jobs` 1, 4, and 16,
 * because every point records into a private buffer that run_sweep folds
 * into the parent in point-index order on both execution paths.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "common/sweep.h"
#include "core/deployment.h"
#include "model/presets.h"
#include "obs/metrics_registry.h"
#include "obs/report_json.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/synthetic.h"

namespace shiftpar {
namespace {

/** Run one sweep with synthetic per-point metrics; return the exposition. */
std::string
synthetic_sweep(int jobs, std::size_t points)
{
    bench::detail::set_jobs(jobs);
    obs::MetricsRegistry parent;
    obs::MetricsRegistry* prev =
        obs::MetricsRegistry::set_thread_override(&parent);
    bench::run_sweep(points, [](std::size_t i) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::current();
        reg.counter_add("points_total");
        reg.counter_add("work_units_total",
                        static_cast<std::int64_t>(3 * i + 1),
                        {{"point", i % 2 ? "odd" : "even"}});
        // Irrational-ish values: float summation order differences would
        // show up in the folded histogram sum.
        reg.observe("point_value", 0.1 + 0.7 * static_cast<double>(i));
        reg.gauge_max("deepest_point", static_cast<double>(i));
        return bench::SweepCommit();
    });
    obs::MetricsRegistry::set_thread_override(prev);
    std::ostringstream os;
    parent.write_prometheus(os);
    return os.str();
}

TEST(MetricsDeterminism, SyntheticSweepExpositionIsByteIdenticalAcrossJobs)
{
    constexpr std::size_t kPoints = 23;
    const std::string j1 = synthetic_sweep(1, kPoints);
    const std::string j4 = synthetic_sweep(4, kPoints);
    const std::string j16 = synthetic_sweep(16, kPoints);
    EXPECT_FALSE(j1.empty());
    EXPECT_EQ(j1, j4);
    EXPECT_EQ(j1, j16);
}

/**
 * Real deployments with fault injection: the router's fault-outcome
 * counters flow through the same buffers, and the report carrying both
 * run records and the metrics section stays byte-identical.
 */
void
faulted_sweep(int jobs, obs::ReportJson* report_sink,
              obs::MetricsRegistry* metrics_sink)
{
    bench::detail::set_jobs(jobs);
    bench::detail::set_thread_report(report_sink);
    obs::MetricsRegistry* prev =
        obs::MetricsRegistry::set_thread_override(metrics_sink);
    bench::run_sweep(3, [](std::size_t i) {
        core::Deployment d;
        d.model = model::qwen_32b();
        d.strategy = parallel::Strategy::kDp;
        // Fail one replica mid-replay (recovering later), so retries /
        // sheds / losses hit the metrics registry from worker threads.
        d.faults.events.push_back(
            {fault::FaultKind::kFail, static_cast<int>(i % 2), -1, 0.5,
             6.0, 1.0});
        auto reqs = workload::uniform_batch(6, 500, 150);
        Rng rng(100 + static_cast<std::uint64_t>(i));
        const auto tail = workload::make_requests(
            workload::poisson_arrivals(rng, 2.0, 3.0), rng,
            workload::lognormal_size(500.0, 0.5, 60.0, 0.4));
        reqs.insert(reqs.end(), tail.begin(), tail.end());
        bench::run_deployment_named("point " + std::to_string(i), d,
                                    reqs);
        return bench::SweepCommit();
    });
    obs::MetricsRegistry::set_thread_override(prev);
    bench::detail::set_thread_report(nullptr);
}

TEST(MetricsDeterminism, FaultedSweepReportAndExpositionMatchAcrossJobs)
{
    const auto render = [](int jobs) {
        obs::ReportJson report;
        obs::MetricsRegistry metrics;
        faulted_sweep(jobs, &report, &metrics);
        report.set_metrics(metrics.snapshot());
        std::ostringstream rep, exp;
        report.write(rep);
        metrics.write_prometheus(exp);
        return std::make_pair(rep.str(), exp.str());
    };
    const auto j1 = render(1);
    const auto j4 = render(4);
    const auto j16 = render(16);

    // The fault wiring actually recorded outcomes.
    EXPECT_NE(j1.second.find("shiftpar_fault_transitions_total"),
              std::string::npos);
    EXPECT_NE(j1.second.find("shiftpar_fault_requests_total"),
              std::string::npos);
    EXPECT_NE(j1.first.find("\"metrics\""), std::string::npos);
    // ...and the run records carry the fault counters that produced them.
    EXPECT_NE(j1.first.find("\"faults\""), std::string::npos);

    EXPECT_EQ(j1.first, j4.first);
    EXPECT_EQ(j1.first, j16.first);
    EXPECT_EQ(j1.second, j4.second);
    EXPECT_EQ(j1.second, j16.second);
}

TEST(MetricsDeterminism, SequentialDirectRecordingMatchesBufferedPath)
{
    // A sweep of one point at jobs=1 must produce the same bytes as
    // recording the same metrics without the sweep runner at all — the
    // buffering layer is transparent.
    obs::MetricsRegistry direct;
    direct.counter_add("c", 5);
    direct.observe("h", 1.25);

    bench::detail::set_jobs(1);
    obs::MetricsRegistry swept;
    obs::MetricsRegistry* prev =
        obs::MetricsRegistry::set_thread_override(&swept);
    bench::run_sweep(1, [](std::size_t) {
        obs::MetricsRegistry::current().counter_add("c", 5);
        obs::MetricsRegistry::current().observe("h", 1.25);
        return bench::SweepCommit();
    });
    obs::MetricsRegistry::set_thread_override(prev);

    std::ostringstream a, b;
    direct.write_prometheus(a);
    swept.write_prometheus(b);
    EXPECT_EQ(a.str(), b.str());
}

} // namespace
} // namespace shiftpar
