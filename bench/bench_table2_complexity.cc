/**
 * @file
 * Table 2: per-GPU computational complexity of TP vs. SP.
 *
 * The paper's analytical claim: for a fixed problem, TP's per-GPU comm
 * volume is ~constant in degree (so comm/compute grows ~ TP), while SP's
 * comm volume scales ~1/SP (comm/compute ~ const). We evaluate the perf
 * model across degrees and print the measured memory, compute time, comm
 * volume, and comm/compute ratio per GPU.
 */

#include <cstdio>

#include "common/bench_common.h"
#include "hw/interconnect.h"
#include "model/presets.h"
#include "parallel/memory.h"
#include "parallel/perf_model.h"
#include "util/csv.h"
#include "util/units.h"

using namespace shiftpar;

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_banner("Table 2",
                        "Per-GPU complexity of TP and SP "
                        "(Llama-70B, 8k-token prefill)");
    const auto m = model::llama_70b();
    const auto node = hw::h200_node();
    const parallel::PerfModel perf(node, m);
    const auto work = parallel::BatchWork::prefill(8192);

    Table table({"Config", "Memory/GPU (GB)", "Compute (ms)", "Comm (ms)",
                 "Comm/Compute"});
    CsvWriter csv(bench::results_path("table2_complexity.csv"),
                  {"config", "memory_gb", "compute_ms", "comm_ms", "ratio"});

    const auto row = [&](parallel::ParallelConfig cfg) {
        const auto t = perf.evaluate(work, cfg);
        const auto plan = parallel::plan_memory(m, node.gpu, cfg, false);
        const double compute = t.gemm + t.attention;
        const double ratio = t.comm / compute;
        table.add_row({cfg.to_string(),
                       Table::fmt(to_gb(plan.base_weight_bytes)),
                       Table::fmt(to_ms(compute), 2),
                       Table::fmt(to_ms(t.comm), 2), Table::fmt(ratio, 3)});
        csv.add_row({cfg.to_string(), Table::fmt(to_gb(plan.base_weight_bytes), 2),
                     Table::fmt(to_ms(compute), 3), Table::fmt(to_ms(t.comm), 3),
                     Table::fmt(ratio, 4)});
    };

    std::printf("\nTP sweep (memory/TP, compute/TP, comm volume ~const):\n");
    for (int tp : {1, 2, 4, 8})
        row({1, tp});
    table.print();

    Table table2({"Config", "Memory/GPU (GB)", "Compute (ms)", "Comm (ms)",
                  "Comm/Compute"});
    std::printf("\nSP sweep (memory const, compute/SP, comm volume /SP):\n");
    for (int sp : {1, 2, 4, 8}) {
        const parallel::ParallelConfig cfg{sp, 1};
        const auto t = perf.evaluate(work, cfg);
        const auto plan = parallel::plan_memory(m, node.gpu, cfg, false);
        const double compute = t.gemm + t.attention;
        table2.add_row({cfg.to_string(),
                        Table::fmt(to_gb(plan.base_weight_bytes)),
                        Table::fmt(to_ms(compute), 2),
                        Table::fmt(to_ms(t.comm), 2),
                        Table::fmt(t.comm / compute, 3)});
        csv.add_row({cfg.to_string(),
                     Table::fmt(to_gb(plan.base_weight_bytes), 2),
                     Table::fmt(to_ms(compute), 3),
                     Table::fmt(to_ms(t.comm), 3),
                     Table::fmt(t.comm / compute, 4)});
    }
    table2.print();
    std::printf(
        "\nPaper's Table 2: TP -> memory m/TP, compute f/TP, comm volume\n"
        "c(n,w) (degree-independent), ratio ~ TP x const. SP -> memory m\n"
        "(replicated), compute f/SP, comm volume c/SP, ratio ~ const.\n");
    return 0;
}
