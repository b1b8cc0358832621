/**
 * @file
 * Extension: scale-out — Shift Parallelism composes with data parallelism
 * across nodes.
 *
 * The paper's artifact appendix notes experiments "can be easily done in
 * parallel across two nodes"; in production, multi-node deployments run
 * one engine group per node behind a router. This bench compares 2-node
 * deployments (16 GPUs): DP-of-TP (2 TP=8 replicas), DP-of-Shift (2 shift
 * replicas), and flat DP (16 single-GPU replicas), showing Shift's
 * single-node benefits carry through the router unchanged.
 */

#include <cstdio>

#include "common/bench_common.h"
#include "common/sweep.h"
#include "core/shift_controller.h"
#include "engine/router.h"
#include "util/logging.h"
#include "model/presets.h"
#include "util/csv.h"
#include "util/units.h"
#include "workload/bursty.h"

using namespace shiftpar;

namespace {

/** Build a 2-node deployment: one engine per node under `strategy`. */
std::unique_ptr<engine::Router>
two_nodes(parallel::Strategy strategy,
          engine::MigrationOptions migration = {})
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
            meta.label = "node engine " + std::to_string(engines.size()) +
                         " " + base.to_string();
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
        for (int i = 0; i < 16; ++i)
            add_engine({1, 1}, false);
        break;
      case parallel::Strategy::kTp:
        for (int i = 0; i < 2; ++i)
            add_engine({1, 8}, false);
        break;
      case parallel::Strategy::kShift:
        for (int i = 0; i < 2; ++i)
            add_engine({8, 1}, true);
        break;
      default:
        fatal("unsupported strategy for the multi-node bench");
    }
    auto router = std::make_unique<engine::Router>(
        std::move(engines), engine::RoutingPolicy::kLeastTokens, migration);
    router->set_trace(bench::trace());
    return router;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_banner("Extension (multi-node)",
                        "2 nodes x 8 H200: DP-of-{Shift, TP} vs flat DP "
                        "(Llama-70B, bursty)");
    Rng rng(2026);
    workload::BurstyOptions opts;
    opts.duration = 300.0;
    opts.base_rate = 2.0;
    opts.burst_rate = 30.0;  // 2-node capacity regime
    const auto reqs = workload::bursty_workload(rng, opts);
    std::printf("workload: %zu requests, %lld tokens\n", reqs.size(),
                static_cast<long long>(workload::total_tokens(reqs)));

    Table table({"Deployment (16 GPUs)", "p50 TTFT (ms)", "p50 TPOT (ms)",
                 "p99 completion (s)", "Peak throughput (tok/s)"});
    CsvWriter csv(bench::results_path("ext_multinode.csv"),
                  {"deployment", "ttft_p50_ms", "tpot_p50_ms",
                   "completion_p99_s", "peak_throughput_tok_s"});

    struct System
    {
        std::string name;
        parallel::Strategy strategy;
        engine::MigrationOptions migration;
    };
    engine::MigrationOptions migrate;
    migrate.enabled = true;
    migrate.min_token_imbalance = 4096;
    const std::vector<System> systems = {
        {"flat DP (16x 1-GPU)", parallel::Strategy::kDp, {}},
        {"flat DP + migration (16x 1-GPU)", parallel::Strategy::kDp,
         migrate},
        {"DP of TP=8 (2 replicas)", parallel::Strategy::kTp, {}},
        {"DP of Shift (2 replicas)", parallel::Strategy::kShift, {}},
    };
    std::vector<std::int64_t> migrations(systems.size(), 0);
    bench::run_sweep(systems.size(), [&](std::size_t i) {
        const auto& [name, strategy, migration] = systems[i];
        bench::set_run_label(name);
        auto router = two_nodes(strategy, migration);
        const auto met = router->run_workload(reqs);
        migrations[i] = router->migration_count();
        bench::record_run(name, met, router->fault_stats(),
                          router->overload_stats());
        return bench::SweepCommit([&, &name = systems[i].name, met] {
            table.add_row({name,
                           Table::fmt(to_ms(met.ttft().percentile(50))),
                           Table::fmt(to_ms(met.tpot().percentile(50)), 2),
                           Table::fmt(met.completion().percentile(99), 2),
                           Table::fmt_count(static_cast<long long>(
                               met.throughput().peak_rate()))});
            csv.add_row({name,
                         Table::fmt(to_ms(met.ttft().percentile(50)), 2),
                         Table::fmt(to_ms(met.tpot().percentile(50)), 3),
                         Table::fmt(met.completion().percentile(99), 3),
                         Table::fmt(met.throughput().peak_rate(), 0)});
        });
    });
    table.print();
    std::printf("\nmigrations: %lld (flat DP + migration row)\n",
                static_cast<long long>(migrations[1]));
    std::printf(
        "\nExpected: the single-node ordering survives scale-out — each\n"
        "Shift replica keeps SP-grade TTFT and TP-grade TPOT, so the\n"
        "2-replica Shift deployment dominates DP-of-TP while staying close\n"
        "to flat DP's burst throughput. Cross-replica migration re-routes\n"
        "queued stragglers that least-tokens routing could not foresee at\n"
        "arrival time, raising flat DP's burst throughput and median TPOT;\n"
        "the moved requests restart at the back of their new queue, so p99\n"
        "completion gives up about a percent in exchange.\n");
    return 0;
}
