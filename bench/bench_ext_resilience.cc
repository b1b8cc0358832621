/**
 * @file
 * Extension: resilience — serving strategies under fail-stop faults.
 *
 * Production clusters lose GPUs: XID errors, ECC faults, NVLink flaps.
 * The parallelization strategy decides the blast radius of each loss —
 * flat DP loses one replica's share of capacity, a Shift/SP group loses
 * one group, and a node-wide TP=8 engine loses everything until the rank
 * rejoins. This bench sweeps an MTBF grid over three 8-GPU deployments of
 * the same model and reports what the router's retry-with-reroute and
 * SLO-aware load shedding salvage: every submitted request must end up
 * exactly once in {completed, lost, shed} (asserted per row).
 *
 * Faults come from `fault::parse_fault_spec` mtbf clauses, so the replay
 * is seed-deterministic: the CSV is byte-identical across runs and
 * `--jobs` values, and the no-fault row is byte-identical to a build
 * without the fault subsystem at all.
 */

#include <cstdio>

#include "common/bench_common.h"
#include "common/sweep.h"
#include "core/shift_controller.h"
#include "engine/router.h"
#include "fault/fault_schedule.h"
#include "model/presets.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/units.h"
#include "workload/bursty.h"

using namespace shiftpar;

namespace {

constexpr double kDuration = 240.0;  // workload + fault-window length, s

/** Build an 8-GPU single-node deployment under `strategy`. */
std::unique_ptr<engine::Router>
build_system(parallel::Strategy strategy)
{
    const auto m = model::llama_70b();
    const auto node = hw::h200_node();
    std::vector<std::unique_ptr<engine::Engine>> engines;

    const auto add_engine = [&](const parallel::ParallelConfig& base,
                                bool shift) {
        engine::EngineConfig cfg;
        cfg.base = base;
        cfg.with_shift_model = shift && base.sp > 1;
        if (obs::TraceSink* sink = bench::trace()) {
            obs::EngineMeta meta;
            meta.label = "engine " + std::to_string(engines.size()) + " " +
                         base.to_string();
            meta.base = base;
            cfg.trace = sink;
            cfg.trace_id = sink->register_engine(meta);
        }
        std::unique_ptr<engine::ExecutionPolicy> policy;
        if (shift && base.sp > 1) {
            const parallel::PerfModel perf(node, m, cfg.perf);
            policy = std::make_unique<core::ShiftController>(
                base, core::ShiftController::auto_threshold(perf, base));
        } else {
            policy = std::make_unique<engine::FixedPolicy>(base);
        }
        engines.push_back(std::make_unique<engine::Engine>(
            node, m, cfg, std::move(policy)));
    };

    switch (strategy) {
      case parallel::Strategy::kDp:
        for (int i = 0; i < 8; ++i)
            add_engine({1, 1}, false);
        break;
      case parallel::Strategy::kShift:
        for (int i = 0; i < 2; ++i)
            add_engine({4, 1}, true);
        break;
      case parallel::Strategy::kTp:
        add_engine({1, 8}, false);
        break;
      default:
        fatal("unsupported strategy for the resilience bench");
    }
    auto router = std::make_unique<engine::Router>(std::move(engines));
    router->set_trace(bench::trace());
    return router;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_banner(
        "Extension (resilience)",
        "8x H200 under fail-stop faults: blast radius per strategy "
        "(Llama-70B, bursty, MTBF sweep)");

    Rng rng(2026);
    workload::BurstyOptions wopts;
    wopts.duration = kDuration;
    wopts.base_rate = 1.0;
    wopts.burst_rate = 12.0;
    const auto reqs = workload::bursty_workload(rng, wopts);
    const auto submitted = static_cast<std::int64_t>(reqs.size());
    std::printf("workload: %zu requests, %lld tokens\n", reqs.size(),
                static_cast<long long>(workload::total_tokens(reqs)));

    struct System
    {
        std::string name;
        parallel::Strategy strategy;
    };
    const std::vector<System> systems = {
        {"flat DP (8x 1-GPU)", parallel::Strategy::kDp},
        {"DP of Shift (2x SP=4)", parallel::Strategy::kShift},
        {"TP=8 (1 replica)", parallel::Strategy::kTp},
    };
    struct Scenario
    {
        std::string name;
        double mtbf;  // 0 = fault-free baseline
    };
    const std::vector<Scenario> scenarios = {
        {"none", 0.0}, {"120", 120.0}, {"60", 60.0}, {"30", 30.0}};

    // Retries must be able to outlive an 8 s outage of the only replica:
    // 0.25+0.5+1+2+4+4 = 11.75 s of capped backoff across 6 attempts.
    engine::ResilienceOptions resilience;
    resilience.max_retries = 6;
    resilience.shed_watermark = 0.99;  // shed logic armed whenever degraded
    resilience.shed_ttft_slo = 1.5;
    resilience.replica_tokens_per_s = 2000.0;

    Table table({"Deployment (8 GPUs)", "MTBF (s)", "Fails", "Dropped",
                 "Retries", "Lost", "Shed", "Completed", "p50 TTFT (ms)",
                 "p99 completion (s)"});
    CsvWriter csv(bench::results_path("ext_resilience.csv"),
                  {"deployment", "mtbf_s", "failures", "recoveries",
                   "dropped", "retries", "submitted", "completed", "lost",
                   "shed", "ttft_p50_ms", "completion_p99_s",
                   "mean_throughput_tok_s"});

    const std::size_t n = systems.size() * scenarios.size();
    bench::run_sweep(n, [&](std::size_t i) {
        const System& sys = systems[i / scenarios.size()];
        const Scenario& sc = scenarios[i % scenarios.size()];
        bench::set_run_label(sys.name + " mtbf=" + sc.name);

        auto router = build_system(sys.strategy);
        if (sc.mtbf > 0.0) {
            char spec[96];
            std::snprintf(spec, sizeof(spec),
                          "mtbf:mean=%g,mttr=8,duration=%g,seed=7",
                          sc.mtbf, kDuration);
            router->set_faults(fault::parse_fault_spec(spec), resilience);
        }
        const auto met = router->run_workload(reqs);
        const fault::FaultStats fs = router->fault_stats();
        const auto completed =
            static_cast<std::int64_t>(met.requests().size());
        // The accounting invariant the whole subsystem hangs on: every
        // submitted request ends up in exactly one terminal bucket.
        SP_ASSERT(submitted == completed + fs.lost + fs.shed,
                  "request accounting leak: ", submitted, " submitted vs ",
                  completed, " completed + ", fs.lost, " lost + ", fs.shed,
                  " shed");
        bench::record_run(sys.name + " mtbf=" + sc.name, met, fs);
        return bench::SweepCommit([&, &sys = systems[i / scenarios.size()],
                                   &sc = scenarios[i % scenarios.size()],
                                   met, fs, completed] {
            table.add_row(
                {sys.name, sc.name, Table::fmt_count(fs.failures),
                 Table::fmt_count(fs.dropped), Table::fmt_count(fs.retries),
                 Table::fmt_count(fs.lost), Table::fmt_count(fs.shed),
                 Table::fmt_count(completed),
                 Table::fmt(to_ms(met.ttft().percentile(50))),
                 Table::fmt(met.completion().percentile(99), 2)});
            csv.add_row(
                {sys.name, sc.name, std::to_string(fs.failures),
                 std::to_string(fs.recoveries), std::to_string(fs.dropped),
                 std::to_string(fs.retries), std::to_string(submitted),
                 std::to_string(completed), std::to_string(fs.lost),
                 std::to_string(fs.shed),
                 Table::fmt(to_ms(met.ttft().percentile(50)), 2),
                 Table::fmt(met.completion().percentile(99), 3),
                 Table::fmt(met.mean_throughput(), 0)});
        });
    });
    table.print();
    std::printf(
        "\nExpected: capacity lost per failure tracks the blast radius —\n"
        "flat DP sheds one GPU in eight, DP-of-Shift one SP group in two,\n"
        "and TP=8 goes dark until the rank rejoins. Retry-with-reroute\n"
        "keeps dropped requests alive across an outage when any replica\n"
        "survives; with a single TP=8 replica the backoff ladder must\n"
        "outlast the repair window, and the SLO guard sheds arrivals that\n"
        "would queue behind the backlog instead of blowing up TTFT.\n");
    return 0;
}
