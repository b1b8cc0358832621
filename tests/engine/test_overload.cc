/**
 * @file
 * Tests for the overload-robust request lifecycle: per-request deadlines,
 * client cancellation streams, hedged retries, per-replica circuit
 * breakers, and graceful drain — plus the conservation invariant
 * (submitted = completed + lost + shed + expired + cancelled), which
 * holds on every replay, and the promise that every feature leaves
 * results unchanged when switched off.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/test_helpers.h"
#include "engine/router.h"
#include "fault/fault_schedule.h"
#include "obs/metrics_registry.h"
#include "workload/lifecycle.h"

namespace shiftpar::engine {
namespace {

using fault::parse_fault_spec;
using shiftpar::testing::make_engine;
using shiftpar::testing::run_on_cluster;
using shiftpar::testing::tiny_model;

/**
 * Build `n` identical {1,4} replicas. A `max_running` cap (0 = default)
 * throttles concurrent sequences so queues form — which is what
 * deadlines, hedges, and drains act on.
 */
std::vector<std::unique_ptr<Engine>>
replicas(int n, std::int64_t max_running = 0)
{
    std::vector<std::unique_ptr<Engine>> engines;
    for (int i = 0; i < n; ++i) {
        EngineConfig cfg;
        cfg.base = {1, 4};
        if (max_running > 0)
            cfg.sched.max_running_seqs = max_running;
        engines.push_back(make_engine(tiny_model(), cfg));
    }
    return engines;
}

std::vector<RequestSpec>
steady_arrivals(int n, double spacing = 0.01)
{
    std::vector<RequestSpec> reqs;
    for (int i = 0; i < n; ++i)
        reqs.push_back({spacing * i, 512, 32});
    return reqs;
}

/** Left-hand side of the lifecycle conservation invariant. */
std::int64_t
settled(const Router& r)
{
    const OverloadStats& os = r.overload_stats();
    const fault::FaultStats& fs = r.fault_stats();
    return os.completed + os.expired + os.cancelled + fs.lost + fs.shed;
}

// -------------------------------------------------------------- deadlines

TEST(Deadline, TightDeadlinesExpireAndConserve)
{
    // Two sequences at a time, so completions spread across the makespan
    // instead of landing together in one giant batch.
    auto reqs = steady_arrivals(40, 0.001);
    Router probe(replicas(1, /*max_running=*/2));
    const double makespan = probe.run_workload(reqs).end_time();

    // One absolute deadline halfway through the plain makespan: early
    // arrivals finish, the backlog expires instead of burning tokens.
    for (auto& s : reqs)
        s.deadline = makespan / 2;
    Router router(replicas(1, /*max_running=*/2));
    const auto met = router.run_workload(reqs);
    const OverloadStats& os = router.overload_stats();
    EXPECT_GT(os.expired, 0);
    EXPECT_GT(os.completed, 0);
    EXPECT_EQ(os.cancelled, 0);
    EXPECT_EQ(settled(router), 40);
    EXPECT_EQ(met.requests().size(),
              static_cast<std::size_t>(os.completed));
    // Expiry frees capacity: the deadlined replay must end no later.
    EXPECT_LE(met.end_time(), makespan);
}

TEST(Deadline, GenerousDeadlinesReplayBitIdenticalToPlain)
{
    const auto reqs = steady_arrivals(30);
    Router plain(replicas(2));
    const auto a = plain.run_workload(reqs);

    auto stamped = reqs;
    workload::LifecycleOptions lc;
    lc.deadline = 1e6;  // deadlines armed, but nothing ever expires
    workload::apply_deadlines(&stamped, lc);
    Router armed(replicas(2));
    const auto b = armed.run_workload(stamped);

    EXPECT_EQ(armed.overload_stats().expired, 0);
    EXPECT_EQ(armed.overload_stats().completed, 30);
    ASSERT_EQ(a.requests().size(), b.requests().size());
    for (std::size_t i = 0; i < a.requests().size(); ++i) {
        EXPECT_EQ(a.requests()[i].id, b.requests()[i].id);
        EXPECT_EQ(a.requests()[i].ttft, b.requests()[i].ttft);
        EXPECT_EQ(a.requests()[i].tpot, b.requests()[i].tpot);
        EXPECT_EQ(a.requests()[i].completion, b.requests()[i].completion);
    }
    EXPECT_EQ(a.end_time(), b.end_time());
}

// ----------------------------------------------------------- cancellation

TEST(CancelStream, AbortsTargetsAndIgnoresLateAborts)
{
    // Everything arrives at t=0 so the two aborts land while their
    // targets are still live; the abort of request 0 at t=1e6 arrives
    // long after it finished and must be a no-op.
    std::vector<RequestSpec> reqs(40, RequestSpec{0.0, 512, 32});
    Router router(replicas(1));
    router.set_cancellations({{5, 0.0}, {30, 0.0}, {0, 1e6}});
    const auto met = router.run_workload(reqs);
    const OverloadStats& os = router.overload_stats();
    EXPECT_EQ(os.cancelled, 2);
    EXPECT_EQ(os.completed, 38);
    EXPECT_EQ(settled(router), 40);
    std::set<RequestId> ids;
    for (const auto& rec : met.requests())
        ids.insert(rec.id);
    EXPECT_EQ(ids.size(), 38u);
    EXPECT_EQ(ids.count(5), 0u);
    EXPECT_EQ(ids.count(30), 0u);
    EXPECT_EQ(ids.count(0), 1u);
}

TEST(CancelStream, DuringRetryBackoffCountsAsCancelledNotLost)
{
    // The replica fail-stops with the whole workload in flight; every
    // request sits in retry limbo (on no engine) until recovery. An
    // abort landing inside that window must settle the flight as
    // cancelled — the pending retry then stands down instead of
    // resubmitting a request nobody wants.
    const auto reqs = steady_arrivals(10, 0.001);
    Router router(replicas(1));
    ResilienceOptions res;
    res.max_retries = 8;
    res.backoff_base = 1.0;
    res.backoff_cap = 1.0;
    router.set_faults(parse_fault_spec("fail:engine=0,at=0.005,recover=1.5"),
                      res);
    router.set_cancellations({{9, 0.5}});
    const auto met = router.run_workload(reqs);
    const OverloadStats& os = router.overload_stats();
    const fault::FaultStats& fs = router.fault_stats();
    EXPECT_EQ(fs.failures, 1);
    EXPECT_GT(fs.dropped, 0);
    EXPECT_EQ(fs.lost, 0);
    EXPECT_EQ(os.cancelled, 1);
    EXPECT_EQ(os.completed, 9);
    EXPECT_EQ(settled(router), 10);
    for (const auto& rec : met.requests())
        EXPECT_NE(rec.id, 9);
}

TEST(CancelStream, AbortOfAnExpiredDeadCopyIsRejectedNotFatal)
{
    // A request that expired leaves its dead copy in the engine's book
    // (the same id may live on elsewhere — the other hedge copy, a
    // retry). An abort reaching that copy must be rejected as
    // not-cancellable, never treated as live work.
    auto engines = replicas(1);
    Engine& e = *engines[0];
    RequestSpec doomed{0.0, 512, 512};
    doomed.deadline = 1e-6;  // expires long before 512 output tokens
    e.submit(doomed, 0);
    run_on_cluster(e);
    EXPECT_EQ(e.expired_count(), 1);
    EXPECT_EQ(e.metrics().requests().size(), 0u);
    EXPECT_FALSE(e.cancel(0));
}

// ---------------------------------------------------------------- hedging

TEST(Hedge, DuplicatesQueuedWorkAndFirstCompletionWins)
{
    // Round-robin feeds half the work to a 10x straggler; serial
    // replicas (max_running=1) let its backlog sit queued-unscheduled
    // past the hedge delay, so hedges fire onto the healthy replica.
    Router router(replicas(2, /*max_running=*/1),
                  RoutingPolicy::kRoundRobin);
    router.set_faults(
        parse_fault_spec("straggle:engine=0,at=0.005,until=500,slow=10"),
        {});
    OverloadOptions opts;
    opts.hedge_delay = 0.1;
    router.set_overload(opts);

    const auto reqs = steady_arrivals(24, 0.001);
    const auto met = router.run_workload(reqs);
    const OverloadStats& os = router.overload_stats();
    EXPECT_GT(os.hedges, 0);
    EXPECT_GT(os.hedge_wins, 0);
    EXPECT_GT(os.hedge_losses, 0);
    EXPECT_LE(os.hedge_wins, os.hedges);
    // Every logical request completes exactly once: first copy wins,
    // the loser is cancelled, nothing is double-reported.
    EXPECT_EQ(os.completed, 24);
    EXPECT_EQ(settled(router), 24);
    // A winning clone reports under its offset id; mapping every record
    // back to its logical request must cover each request exactly once.
    std::set<RequestId> ids;
    for (const auto& rec : met.requests()) {
        const RequestId logical = logical_request_id(rec.id);
        EXPECT_LT(logical, 24);
        ids.insert(logical);
    }
    EXPECT_EQ(met.requests().size(), 24u);
    EXPECT_EQ(ids.size(), 24u);
}

TEST(Hedge, SingleReplicaHasNowhereToHedge)
{
    Router router(replicas(1, /*max_running=*/1));
    OverloadOptions opts;
    opts.hedge_delay = 0.01;
    router.set_overload(opts);
    const auto met = router.run_workload(steady_arrivals(12, 0.001));
    EXPECT_EQ(router.overload_stats().hedges, 0);
    EXPECT_EQ(router.overload_stats().completed, 12);
    EXPECT_EQ(met.requests().size(), 12u);
}

// ------------------------------------------------------- circuit breakers

TEST(Breaker, TripsOnAStragglerThenProbesAndRecloses)
{
    // Paced arrivals over a 10 s horizon, straggle window over the first
    // 3 s only: the breaker must trip during the window, send half-open
    // probes once the open duration elapses, and close on a probe that
    // completes after the straggler heals — all well before the arrivals
    // (and thus the routing decisions that drive the state machine) end.
    const auto reqs = steady_arrivals(200, 0.05);
    Router router(replicas(3), RoutingPolicy::kRoundRobin);
    router.set_faults(
        parse_fault_spec("straggle:engine=0,at=0.01,until=3,slow=8"), {});
    OverloadOptions opts;
    opts.breaker.enabled = true;
    opts.breaker.min_samples = 3;
    opts.breaker.trip_ratio = 2.0;
    opts.breaker.open_duration = 0.5;
    router.set_overload(opts);
    const auto met = router.run_workload(reqs);
    const OverloadStats& os = router.overload_stats();
    EXPECT_GT(os.breaker_opens, 0);
    EXPECT_GT(os.breaker_probes, 0);
    EXPECT_GT(os.breaker_closes, 0);
    EXPECT_EQ(os.completed, 200);
    EXPECT_EQ(settled(router), 200);
    EXPECT_EQ(met.requests().size(), 200u);
}

// ---------------------------------------------------------- graceful drain

TEST(Drain, HandsBackWaitingWorkAndResumesAdmission)
{
    // Serial replicas with a dense burst guarantee a waiting queue on
    // engine 0 when the drain starts; the handed-back requests re-route
    // to the survivor and everything still completes exactly once.
    Router router(replicas(2, /*max_running=*/1),
                  RoutingPolicy::kRoundRobin);
    router.set_faults(
        parse_fault_spec("drain:engine=0,at=0.05,resume=2.0"), {});
    const auto reqs = steady_arrivals(30, 0.001);
    const auto met = router.run_workload(reqs);
    const OverloadStats& os = router.overload_stats();
    EXPECT_EQ(os.drains, 1);
    EXPECT_GT(os.drained, 0);
    EXPECT_EQ(os.drain_resumes, 1);
    EXPECT_FALSE(router.engine(0).draining());  // resumed
    std::set<RequestId> ids;
    for (const auto& rec : met.requests())
        ids.insert(rec.id);
    EXPECT_EQ(ids.size(), 30u);  // every request, exactly once
}

TEST(Drain, WithoutResumeTheSurvivorFinishesEverything)
{
    Router router(replicas(2, /*max_running=*/1),
                  RoutingPolicy::kRoundRobin);
    router.set_faults(parse_fault_spec("drain:engine=0,at=0.05"), {});
    const auto reqs = steady_arrivals(30, 0.001);
    const auto met = router.run_workload(reqs);
    const OverloadStats& os = router.overload_stats();
    EXPECT_EQ(os.drains, 1);
    EXPECT_GT(os.drained, 0);
    EXPECT_EQ(os.drain_resumes, 0);
    EXPECT_TRUE(router.engine(0).draining());  // admission stayed closed
    EXPECT_EQ(met.requests().size(), 30u);
    // The drained engine kept only what was already running when the
    // drain started; the survivor absorbed the rest.
    EXPECT_LT(router.engine(0).metrics().requests().size(), 15u);
}

// --------------------------------------------- off-switch and determinism

TEST(Lifecycle, DefaultOptionsAreBitIdenticalToPlainRouter)
{
    const auto reqs = steady_arrivals(40);
    Router plain(replicas(2));
    const auto a = plain.run_workload(reqs);

    Router armed(replicas(2));
    armed.set_overload(OverloadOptions{});  // every knob at its default
    armed.set_cancellations({});
    const auto b = armed.run_workload(reqs);

    EXPECT_FALSE(armed.overload_stats().any());
    ASSERT_EQ(a.requests().size(), b.requests().size());
    for (std::size_t i = 0; i < a.requests().size(); ++i) {
        EXPECT_EQ(a.requests()[i].id, b.requests()[i].id);
        EXPECT_EQ(a.requests()[i].ttft, b.requests()[i].ttft);
        EXPECT_EQ(a.requests()[i].tpot, b.requests()[i].tpot);
        EXPECT_EQ(a.requests()[i].completion, b.requests()[i].completion);
    }
    EXPECT_EQ(a.end_time(), b.end_time());
}

TEST(Lifecycle, FullStackReplayIsDeterministic)
{
    const auto run = [] {
        auto reqs = steady_arrivals(60, 0.002);
        workload::LifecycleOptions lc;
        lc.cancel_rate = 0.15;
        lc.cancel_delay_mean = 0.3;
        lc.seed = 7;
        lc.deadline = 1.5;
        lc.deadline_per_token = 0.01;
        workload::apply_deadlines(&reqs, lc);

        Router router(replicas(2, /*max_running=*/2),
                      RoutingPolicy::kRoundRobin);
        router.set_faults(
            parse_fault_spec("straggle:engine=0,at=0.01,until=2,slow=4"),
            {});
        OverloadOptions opts;
        opts.hedge_delay = 0.1;
        opts.breaker.enabled = true;
        opts.breaker.min_samples = 3;
        router.set_overload(opts);
        router.set_cancellations(workload::cancel_stream(reqs, lc));
        const auto met = router.run_workload(reqs);
        EXPECT_EQ(settled(router), 60);
        return std::make_pair(met, router.overload_stats());
    };
    const auto [a, sa] = run();
    const auto [b, sb] = run();
    EXPECT_EQ(sa.completed, sb.completed);
    EXPECT_EQ(sa.expired, sb.expired);
    EXPECT_EQ(sa.cancelled, sb.cancelled);
    EXPECT_EQ(sa.hedges, sb.hedges);
    EXPECT_EQ(sa.hedge_wins, sb.hedge_wins);
    EXPECT_EQ(sa.hedge_losses, sb.hedge_losses);
    EXPECT_EQ(sa.breaker_opens, sb.breaker_opens);
    ASSERT_EQ(a.requests().size(), b.requests().size());
    for (std::size_t i = 0; i < a.requests().size(); ++i) {
        EXPECT_EQ(a.requests()[i].id, b.requests()[i].id);
        EXPECT_EQ(a.requests()[i].ttft, b.requests()[i].ttft);
        EXPECT_EQ(a.requests()[i].completion, b.requests()[i].completion);
    }
}

/** @return the `shiftpar_request_outcome_total` series of `reg`. */
std::map<std::string, std::int64_t>
outcome_counters(const obs::MetricsRegistry& reg)
{
    std::map<std::string, std::int64_t> out;
    for (const auto& c : reg.snapshot().counters) {
        if (c.name != "shiftpar_request_outcome_total")
            continue;
        for (const auto& [k, v] : c.labels) {
            if (k == "outcome")
                out[v] += c.value;
        }
    }
    return out;
}

TEST(Lifecycle, OutcomeCountersReachTheRegistryOnEveryReplay)
{
    obs::MetricsRegistry reg;
    obs::MetricsRegistry* prev =
        obs::MetricsRegistry::set_thread_override(&reg);

    // Plain replay: every request settles as completed.
    {
        Router plain(replicas(1));
        plain.run_workload(steady_arrivals(10));
        EXPECT_EQ(plain.overload_stats().completed, 10);
    }
    EXPECT_EQ(outcome_counters(reg),
              (std::map<std::string, std::int64_t>{{"completed", 10}}));

    // Lifecycle replay: every outcome lands in the labeled counter.
    {
        std::vector<RequestSpec> reqs(20, RequestSpec{0.0, 512, 32});
        Router router(replicas(1));
        router.set_cancellations({{3, 0.0}, {11, 0.0}});
        router.run_workload(reqs);
        EXPECT_EQ(router.overload_stats().cancelled, 2);
    }
    std::int64_t total = 0;
    for (const auto& [outcome, n] : outcome_counters(reg))
        total += n;
    EXPECT_EQ(total, 30);  // completed + cancelled, one bump per request
    EXPECT_EQ(outcome_counters(reg)["cancelled"], 2);

    obs::MetricsRegistry::set_thread_override(prev);
}

/** One replay shape for the conservation sweep. */
struct ConservationCase
{
    const char* name;
    std::function<std::unique_ptr<Router>()> build;
    /** @return true when the case's feature actually fired. */
    std::function<bool(const Router&)> exercised;
};

std::vector<ConservationCase>
conservation_cases()
{
    const auto faulted = [](const char* spec, ResilienceOptions res = {}) {
        return [spec, res] {
            auto r = std::make_unique<Router>(replicas(2, /*max_running=*/1),
                                              RoutingPolicy::kRoundRobin);
            r->set_faults(parse_fault_spec(spec), res);
            return r;
        };
    };
    ResilienceOptions shedding;
    shedding.shed_watermark = 0.9;  // one of two replicas down sheds
    return {
        {"Plain", [] { return std::make_unique<Router>(replicas(2)); },
         [](const Router&) { return true; }},
        {"Migration",
         [] {
             MigrationOptions mig;
             mig.enabled = true;
             mig.min_token_imbalance = 256;
             return std::make_unique<Router>(replicas(2, /*max_running=*/1),
                                             RoutingPolicy::kRoundRobin,
                                             mig);
         },
         [](const Router& r) { return r.migration_count() > 0; }},
        {"FailFault", faulted("fail:engine=0,at=0.05,recover=0.5"),
         [](const Router& r) { return r.fault_stats().dropped > 0; }},
        {"DrainFault", faulted("drain:engine=0,at=0.05,resume=0.5"),
         [](const Router& r) { return r.overload_stats().drained > 0; }},
        {"Shedding", faulted("fail:engine=0,at=0.05", shedding),
         [](const Router& r) { return r.fault_stats().shed > 0; }},
    };
}

void
PrintTo(const ConservationCase& c, std::ostream* os)
{
    *os << c.name;
}

class Conservation : public ::testing::TestWithParam<ConservationCase>
{
};

TEST_P(Conservation, EveryRequestSettlesExactlyOnce)
{
    obs::MetricsRegistry reg;
    obs::MetricsRegistry* prev =
        obs::MetricsRegistry::set_thread_override(&reg);
    const auto reqs = steady_arrivals(40, 0.005);
    auto router = GetParam().build();
    router->run_workload(reqs);
    obs::MetricsRegistry::set_thread_override(prev);

    EXPECT_TRUE(GetParam().exercised(*router));
    EXPECT_EQ(settled(*router), static_cast<std::int64_t>(reqs.size()));
    std::int64_t counted = 0;
    for (const auto& [outcome, n] : outcome_counters(reg))
        counted += n;
    EXPECT_EQ(counted, static_cast<std::int64_t>(reqs.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Replays, Conservation, ::testing::ValuesIn(conservation_cases()),
    [](const ::testing::TestParamInfo<ConservationCase>& info) {
        return std::string(info.param.name);
    });

// --------------------------------------------- client-side stream synthesis

TEST(LifecycleSynthesis, CancelStreamIsSeedDeterministicAndSorted)
{
    const auto reqs = steady_arrivals(200, 0.01);
    workload::LifecycleOptions lc;
    lc.cancel_rate = 0.3;
    lc.cancel_delay_mean = 2.0;
    lc.seed = 42;
    const auto a = workload::cancel_stream(reqs, lc);
    const auto b = workload::cancel_stream(reqs, lc);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
    }
    for (std::size_t i = 0; i + 1 < a.size(); ++i)
        EXPECT_LE(a[i].at, a[i + 1].at);  // sorted by abort time
    for (const auto& c : a) {
        ASSERT_GE(c.index, 0);
        ASSERT_LT(c.index, 200);
        // Aborts never precede their target's arrival.
        EXPECT_GE(c.at, reqs[static_cast<std::size_t>(c.index)].arrival);
    }
    // A different seed decorrelates the stream.
    lc.seed = 43;
    const auto c = workload::cancel_stream(reqs, lc);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].index != c[i].index || a[i].at != c[i].at;
    EXPECT_TRUE(differs);

    lc.cancel_rate = 0.0;
    EXPECT_TRUE(workload::cancel_stream(reqs, lc).empty());
}

TEST(LifecycleSynthesis, DeadlinesStampArrivalPlusBudget)
{
    std::vector<RequestSpec> reqs = {{1.0, 100, 10}, {2.0, 100, 40}};
    workload::LifecycleOptions lc;
    lc.deadline = 5.0;
    lc.deadline_per_token = 0.1;
    workload::apply_deadlines(&reqs, lc);
    EXPECT_DOUBLE_EQ(reqs[0].deadline, 1.0 + 5.0 + 0.1 * 10);
    EXPECT_DOUBLE_EQ(reqs[1].deadline, 2.0 + 5.0 + 0.1 * 40);

    std::vector<RequestSpec> untouched = {{1.0, 100, 10}};
    workload::LifecycleOptions off;  // deadline 0 = no-op
    workload::apply_deadlines(&untouched, off);
    EXPECT_DOUBLE_EQ(untouched[0].deadline, 0.0);
}

} // namespace
} // namespace shiftpar::engine
