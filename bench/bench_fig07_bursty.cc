/**
 * @file
 * Figure 7 + Table 5: the bursty synthetic workload.
 *
 * A steady interactive stream with four high-traffic bursts (Llama-70B,
 * 8xH200). We print the per-bin traffic/throughput timeline (Fig. 7) and
 * the summary statistics (Table 5): median TTFT, median TPOT, and peak
 * throughput per strategy.
 *
 * Paper shape: Shift obtains far lower median TTFT than both (148 ms vs.
 * 1.3-3.9 s), lower TPOT (51 vs. 83-85 ms), and near-DP peak throughput.
 */

#include <cstdio>

#include "common/bench_common.h"
#include "common/sweep.h"
#include "model/presets.h"
#include "util/csv.h"
#include "util/units.h"
#include "workload/bursty.h"

using namespace shiftpar;

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_banner("Figure 7 / Table 5",
                        "Bursty synthetic workload (Llama-70B, 8xH200)");
    // Burst rate calibrated to the testbed's capacities: ~47k tok/s inside
    // a burst sits above TP's ~41k tok/s ceiling (its queue grows through
    // the burst) but below Shift's ~58k and DP's ~68k (they keep up) —
    // exactly the Table 5 regime.
    Rng rng(2026);
    workload::BurstyOptions opts;
    opts.duration = 400.0;
    opts.base_rate = 1.0;
    opts.num_bursts = 4;
    opts.burst_duration = 20.0;
    opts.burst_rate = 15.0;
    const auto reqs = workload::bursty_workload(rng, opts);
    std::printf("workload: %zu requests over %.0f s, %lld total tokens\n",
                reqs.size(), opts.duration,
                static_cast<long long>(workload::total_tokens(reqs)));

    const auto m = model::llama_70b();
    Table table({"Deployment", "Median TTFT", "Median TPOT",
                 "p99 TTFT", "Peak Throughput"});
    CsvWriter csv(bench::results_path("fig07_table5_bursty.csv"),
                  {"strategy", "median_ttft_ms", "median_tpot_ms",
                   "p99_ttft_ms", "peak_throughput_tok_s"});
    CsvWriter timeline(bench::results_path("fig07_timeline.csv"),
                       {"strategy", "t_s", "throughput_tok_s"});

    const auto& strategies = bench::comparison_strategies();
    bench::run_sweep(strategies.size(), [&](std::size_t i) {
        const parallel::Strategy s = strategies[i];
        const auto run = bench::run_strategy(m, s, reqs);
        return bench::SweepCommit([&, s, run] {
            const auto& met = run.metrics;
            const util::Histogram ttft = met.ttft();
            const util::Histogram tpot = met.tpot();
            const TimeSeries throughput = met.throughput();
            const char* label =
                s == parallel::Strategy::kDp ? "vLLM (throughput opt.-DP)"
                : s == parallel::Strategy::kTp ? "vLLM (latency opt.-TP)"
                : s == parallel::Strategy::kSp ? "vLLM+SP (static)"
                                               : "vLLM+Shift Parallelism";
            table.add_row(
                {label, Table::fmt(to_ms(ttft.median())) + " ms",
                 Table::fmt(to_ms(tpot.median())) + " ms",
                 Table::fmt(to_ms(ttft.percentile(99))) + " ms",
                 Table::fmt_count(
                     static_cast<long long>(throughput.peak_rate())) +
                     " tok/s"});
            csv.add_row({parallel::strategy_name(s),
                         Table::fmt(to_ms(ttft.median()), 2),
                         Table::fmt(to_ms(tpot.median()), 2),
                         Table::fmt(to_ms(ttft.percentile(99)), 2),
                         Table::fmt(throughput.peak_rate(), 0)});
            for (std::size_t b = 0; b < throughput.num_bins(); ++b) {
                timeline.add_row({parallel::strategy_name(s),
                                  Table::fmt(throughput.bin_start(b), 1),
                                  Table::fmt(throughput.rate(b), 0)});
            }
        });
    });
    table.print();
    std::printf(
        "\nPaper's Table 5: DP 1,355 ms / 83 ms / 75,535 tok/s; TP 3,930 ms\n"
        "/ 85 ms / 51,162 tok/s; Shift 148 ms / 51 ms / 69,147 tok/s —\n"
        "Shift sustains the bursts with TTFT that does not explode, TPOT\n"
        "below both, and near-DP peak throughput.\n");
    return 0;
}
