/**
 * @file
 * Extension: QoS-class (priority) scheduling for mixed traffic.
 *
 * Section 2.1: "different requests [are] subject to different
 * quality-of-service metrics (latency versus throughput)". Beyond picking
 * the right parallelism per step (Shift), the scheduler can admit
 * latency-class requests ahead of batch-class requests. This bench mixes
 * a batch job with interactive traffic under Shift Parallelism and
 * compares flat FCFS against prioritized admission.
 *
 * Like every replay driver, this bench runs on the discrete-event cluster
 * core (`sim::Cluster`) underneath `run_deployment`: arrivals are posted
 * as events and the engine advances step by step on the shared timeline.
 */

#include <cstdio>

#include "common/bench_common.h"
#include "common/sweep.h"
#include "model/presets.h"
#include "util/csv.h"
#include "util/units.h"
#include "workload/arrival.h"
#include "workload/synthetic.h"

using namespace shiftpar;

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_banner("Extension (QoS priority)",
                        "Interactive-over-batch admission under Shift "
                        "(Qwen-32B)");
    Rng rng(2026);
    // 400 batch documents at t=0 plus interactive chat at 1 req/s.
    const auto interactive_sizes =
        workload::lognormal_size(800.0, 0.5, 200.0, 0.4);
    const auto batch_sizes =
        workload::lognormal_size(6000.0, 0.5, 100.0, 0.3);

    const auto build_workload = [&](int interactive_priority) {
        // Both priority variants must draw identical workloads, so the
        // same-stream fork is the point, not an accident.
        // shiftlint-allow(rng-discipline): deliberate same-stream fork
        Rng local = rng;
        auto reqs = workload::make_requests(std::vector<double>(400, 0.0),
                                            local, batch_sizes);
        auto chat = workload::make_requests(
            workload::poisson_arrivals(local, 1.0, 90.0), local,
            interactive_sizes);
        for (auto& r : chat)
            r.priority = interactive_priority;
        reqs.insert(reqs.end(), chat.begin(), chat.end());
        return reqs;
    };

    Table table({"Scheduler", "Chat p50 TTFT (ms)", "Chat p99 TTFT (ms)",
                 "Batch makespan (s)", "Throughput (tok/s)"});
    CsvWriter csv(bench::results_path("ext_priority.csv"),
                  {"mode", "chat_ttft_p50_ms", "chat_ttft_p99_ms",
                   "batch_makespan_s", "throughput_tok_s"});

    bench::run_sweep(2, [&](std::size_t i) {
        const int prio = static_cast<int>(i);
        core::Deployment d;
        d.model = model::qwen_32b();
        d.strategy = parallel::Strategy::kShift;
        const auto met =
            bench::run_deployment_named(prio ? "priority scheduling"
                                             : "FCFS",
                                        d, build_workload(prio))
                .metrics;

        // Batch documents all arrive at t = 0; chat arrivals are strictly
        // later (Poisson inter-arrival > 0).
        Summary chat_ttft;
        double batch_done = 0.0;
        for (const auto& r : met.requests()) {
            if (r.arrival == 0.0)
                batch_done = std::max(batch_done, r.completion);
            else
                chat_ttft.add(to_ms(r.ttft));
        }
        return bench::SweepCommit([&, prio, met, chat_ttft, batch_done] {
            const char* name = prio ? "prioritized (chat > batch)"
                                    : "flat FCFS";
            table.add_row({name, Table::fmt(chat_ttft.percentile(50)),
                           Table::fmt(chat_ttft.percentile(99)),
                           Table::fmt(batch_done, 1),
                           Table::fmt_count(static_cast<long long>(
                               met.mean_throughput()))});
            csv.add_row({name, Table::fmt(chat_ttft.percentile(50), 2),
                         Table::fmt(chat_ttft.percentile(99), 2),
                         Table::fmt(batch_done, 2),
                         Table::fmt(met.mean_throughput(), 0)});
        });
    });
    table.print();
    std::printf(
        "\nExpected: prioritized admission collapses chat TTFT while the\n"
        "batch job's makespan and total throughput move only marginally —\n"
        "QoS classes compose with Shift Parallelism.\n");
    return 0;
}
