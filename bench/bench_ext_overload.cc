/**
 * @file
 * Extension: overload robustness — request-lifecycle mitigations under
 * saturating load.
 *
 * Overloaded clusters do not fail cleanly: queues grow without bound,
 * tail latency explodes, and every second of decode spent on a request
 * the client stopped waiting for is capacity stolen from one that would
 * still count. This bench sweeps an overload factor (arrival-rate
 * multiplier) against four mitigation strategies on the same 8-replica
 * DP deployment, with a mid-run straggler so hedges and breakers have a
 * slow replica to route around:
 *
 *  - none:     client cancellations only (the shared workload behavior);
 *  - deadline: per-request completion deadlines — the scheduler evicts
 *              expired requests instead of finishing work nobody wants;
 *  - hedge:    still-queued requests are duplicated onto the least-loaded
 *              other replica after a delay; first completion wins;
 *  - breaker:  per-replica circuit breakers steer admissions away from
 *              the straggler until a half-open probe clears it.
 *
 * Every row replays the identical workload and cancel stream, and the
 * lifecycle conservation invariant is asserted per row: submitted =
 * completed + expired + cancelled + lost + shed. Goodput counts only
 * requests meeting the interactive SLO, so burning tokens on doomed
 * requests shows up as lost goodput, not just lost latency.
 */

#include <cstdio>

#include "common/bench_common.h"
#include "common/sweep.h"
#include "engine/router.h"
#include "fault/fault_schedule.h"
#include "model/presets.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/units.h"
#include "workload/bursty.h"
#include "workload/lifecycle.h"

using namespace shiftpar;

namespace {

constexpr double kDuration = 120.0;  // workload length, seconds

/** Build the 8-replica DP deployment (one engine per GPU). */
std::unique_ptr<engine::Router>
build_system(const engine::OverloadOptions& overload)
{
    const auto m = model::qwen_32b();
    const auto node = hw::h200_node();
    std::vector<std::unique_ptr<engine::Engine>> engines;
    for (int i = 0; i < 8; ++i) {
        engine::EngineConfig cfg;
        cfg.base = {1, 1};
        if (obs::TraceSink* sink = bench::trace()) {
            obs::EngineMeta meta;
            meta.label = "engine " + std::to_string(i) + " " +
                         cfg.base.to_string();
            meta.base = cfg.base;
            cfg.trace = sink;
            cfg.trace_id = sink->register_engine(meta);
        }
        engines.push_back(std::make_unique<engine::Engine>(
            node, m, cfg,
            std::make_unique<engine::FixedPolicy>(cfg.base)));
    }
    // Round-robin admission, not least-tokens: a feedback-free balancer
    // is exactly the setting where a straggler silently accumulates a
    // backlog, which is what the lifecycle mitigations exist to fix.
    auto router = std::make_unique<engine::Router>(
        std::move(engines), engine::RoutingPolicy::kRoundRobin);
    router->set_trace(bench::trace());
    // The straggler window the mitigations react to. Armed identically in
    // every row; only the lifecycle options differ across strategies.
    router->set_faults(
        fault::parse_fault_spec("straggle:engine=0,at=10,until=110,slow=3"),
        {});
    router->set_overload(overload);
    return router;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_banner(
        "Extension (overload robustness)",
        "8x H200 DP under saturating load: deadlines, hedged retries, "
        "and circuit breakers vs a straggling replica (Qwen-32B, bursty)");

    struct Strategy
    {
        std::string name;
        bool deadline;
        double hedge_delay;  // 0 = no hedging
        bool breaker;
    };
    const std::vector<Strategy> strategies = {
        {"none", false, 0.0, false},
        {"deadline", true, 0.0, false},
        {"hedge", false, 2.0, false},
        {"breaker", false, 0.0, true},
    };
    const std::vector<double> factors = {1.0, 2.0, 4.0};

    // One workload + cancel stream per overload factor, shared across the
    // factor's four strategy rows so they answer the same question.
    struct Load
    {
        std::vector<engine::RequestSpec> plain;     // no deadlines
        std::vector<engine::RequestSpec> deadlined; // stamped deadlines
        std::vector<engine::CancelEvent> cancels;
    };
    std::vector<Load> loads;
    for (const double f : factors) {
        Rng rng(2026);
        workload::BurstyOptions wopts;
        wopts.duration = kDuration;
        wopts.base_rate = 1.0 * f;
        wopts.num_bursts = 3;
        wopts.burst_rate = 10.0 * f;
        wopts.burst_duration = 15.0;
        Load load;
        load.plain = workload::bursty_workload(rng, wopts);
        workload::LifecycleOptions lc;
        lc.cancel_rate = 0.05;
        lc.cancel_delay_mean = 5.0;
        lc.seed = 11;
        load.cancels = workload::cancel_stream(load.plain, lc);
        lc.deadline = 20.0;
        lc.deadline_per_token = 0.05;
        load.deadlined = load.plain;
        workload::apply_deadlines(&load.deadlined, lc);
        std::printf("workload x%g: %zu requests, %lld tokens\n", f,
                    load.plain.size(),
                    static_cast<long long>(
                        workload::total_tokens(load.plain)));
        loads.push_back(std::move(load));
    }

    const engine::SloSpec slo;  // interactive: TTFT 2 s, TPOT 50 ms

    Table table({"Overload", "Strategy", "Completed", "Expired",
                 "Cancelled", "Hedges", "Breaker opens", "p99 TTFT (s)",
                 "Goodput (tok/s)"});
    CsvWriter csv(bench::results_path("ext_overload.csv"),
                  {"overload_factor", "strategy", "submitted", "completed",
                   "expired", "cancelled", "lost", "shed", "hedges",
                   "hedge_wins", "hedge_losses", "breaker_opens",
                   "breaker_closes", "drained", "ttft_p99_s",
                   "goodput_tok_s", "slo_attainment"});

    const std::size_t n = factors.size() * strategies.size();
    bench::run_sweep(n, [&](std::size_t i) {
        const std::size_t fi = i / strategies.size();
        const Strategy& st = strategies[i % strategies.size()];
        const Load& load = loads[fi];
        const double f = factors[fi];
        bench::set_run_label("x" + Table::fmt(f, 0) + " " + st.name);

        engine::OverloadOptions overload;
        overload.hedge_delay = st.hedge_delay;
        overload.breaker.enabled = st.breaker;
        // Demand a longer, clearer signal than the defaults before
        // tripping: per-token service time legitimately spreads ~2x
        // across batch mixes, and a false open under round-robin costs a
        // healthy replica.
        overload.breaker.min_samples = 15;
        overload.breaker.trip_ratio = 2.5;
        overload.breaker.open_duration = 15.0;
        auto router = build_system(overload);
        router->set_cancellations(load.cancels);
        const auto& reqs = st.deadline ? load.deadlined : load.plain;
        const auto met = router->run_workload(reqs);

        const engine::OverloadStats os = router->overload_stats();
        const fault::FaultStats fs = router->fault_stats();
        const auto submitted = static_cast<std::int64_t>(reqs.size());
        // The lifecycle conservation invariant, re-checked at the bench
        // level on top of the router's internal assertion: every
        // submitted request lands in exactly one terminal bucket.
        SP_ASSERT(submitted == os.completed + os.expired + os.cancelled +
                                   fs.lost + fs.shed,
                  "request accounting leak: ", submitted, " submitted vs ",
                  os.completed, " completed + ", os.expired, " expired + ",
                  os.cancelled, " cancelled + ", fs.lost, " lost + ",
                  fs.shed, " shed");
        bench::record_run("x" + Table::fmt(f, 0) + " " + st.name, met, fs,
                          os);
        return bench::SweepCommit([&table, &csv, &st, f, met, os, fs,
                                   submitted, slo] {
            table.add_row(
                {"x" + Table::fmt(f, 0), st.name,
                 Table::fmt_count(os.completed),
                 Table::fmt_count(os.expired),
                 Table::fmt_count(os.cancelled),
                 Table::fmt_count(os.hedges),
                 Table::fmt_count(os.breaker_opens),
                 Table::fmt(met.ttft().percentile(99), 3),
                 Table::fmt(met.goodput(slo), 0)});
            csv.add_row(
                {Table::fmt(f, 0), st.name, std::to_string(submitted),
                 std::to_string(os.completed), std::to_string(os.expired),
                 std::to_string(os.cancelled), std::to_string(fs.lost),
                 std::to_string(fs.shed), std::to_string(os.hedges),
                 std::to_string(os.hedge_wins),
                 std::to_string(os.hedge_losses),
                 std::to_string(os.breaker_opens),
                 std::to_string(os.breaker_closes),
                 std::to_string(os.drained),
                 Table::fmt(met.ttft().percentile(99), 4),
                 Table::fmt(met.goodput(slo), 1),
                 Table::fmt(met.slo_attainment(slo), 4)});
        });
    });
    table.print();
    std::printf(
        "\nExpected: each mitigation wins in its regime and none wins in\n"
        "all of them. With headroom (x1-x2) the breaker stops feeding the\n"
        "straggler and hedging rescues requests queued behind it, cutting\n"
        "p99 TTFT well below 'none'. Deadlines pay off as overload grows:\n"
        "evicting doomed requests converts their decode seconds into\n"
        "goodput. At deep saturation (x4) the tradeoffs invert honestly —\n"
        "hedging duplicates work a saturated cluster cannot absorb, and a\n"
        "breaker shrinks capacity exactly when all of it is needed; only\n"
        "deadlines keep helping.\n");
    return 0;
}
