/** @file End-to-end tests for the engine loop, metrics, and router. */

#include <gtest/gtest.h>

#include "common/test_helpers.h"
#include "engine/router.h"
#include "model/presets.h"
#include "parallel/perf_model.h"

namespace shiftpar::engine {
namespace {

using shiftpar::testing::make_engine;
using shiftpar::testing::run_on_cluster;
using shiftpar::testing::test_node;
using shiftpar::testing::tiny_model;
using shiftpar::testing::tp8_engine_config;

TEST(Engine, SingleRequestLifecycle)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    e->submit({0.0, 1000, 10}, 1);
    EXPECT_TRUE(e->has_work());
    run_on_cluster(*e);
    EXPECT_FALSE(e->has_work());

    const auto& reqs = e->metrics().requests();
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].prompt_tokens, 1000);
    EXPECT_GT(reqs[0].ttft, 0.0);
    EXPECT_GT(reqs[0].tpot, 0.0);
    EXPECT_GE(reqs[0].completion, reqs[0].ttft);
    // KV fully released at the end.
    EXPECT_EQ(e->cache().num_requests(), 0u);
}

TEST(Engine, TtftMatchesPerfModelPrediction)
{
    const auto m = tiny_model();
    auto cfg = tp8_engine_config();
    cfg.sched.max_batched_tokens = 1 << 20;  // single-chunk prefill
    auto e = make_engine(m, cfg);
    e->submit({0.0, 2048, 2}, 1);
    run_on_cluster(*e);

    const parallel::PerfModel perf(test_node(), m, cfg.perf);
    const double expected = perf.prefill_time(2048, cfg.base);
    EXPECT_NEAR(e->metrics().requests()[0].ttft, expected, 1e-12);
}

TEST(Engine, TpotMatchesDecodeStepTime)
{
    const auto m = tiny_model();
    auto cfg = tp8_engine_config();
    auto e = make_engine(m, cfg);
    const std::int64_t out = 11;
    e->submit({0.0, 256, out}, 1);
    run_on_cluster(*e);

    // With one lone request every decode step is batch 1; TPOT should be
    // within the range of the per-step decode times (context grows).
    const parallel::PerfModel perf(test_node(), m, cfg.perf);
    const double lo = perf.decode_step_time(1, 256, cfg.base);
    const double hi = perf.decode_step_time(1, 256 + out, cfg.base);
    const double tpot = e->metrics().requests()[0].tpot;
    EXPECT_GE(tpot, lo * 0.99);
    EXPECT_LE(tpot, hi * 1.01);
}

TEST(Engine, ArrivalDelayIsRespected)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    e->submit({5.0, 100, 2}, 1);
    run_on_cluster(*e);
    const auto& rec = e->metrics().requests()[0];
    // Wait should be ~zero: the engine was idle when it arrived.
    EXPECT_NEAR(rec.wait, 0.0, 1e-9);
}

TEST(Engine, QueueingShowsUpInWait)
{
    auto cfg = tp8_engine_config();
    cfg.sched.max_running_seqs = 1;  // force serialization
    auto e = make_engine(tiny_model(), cfg);
    e->submit({0.0, 5000, 50}, 1);
    e->submit({0.0, 5000, 50}, 2);
    run_on_cluster(*e);
    const auto& reqs = e->metrics().requests();
    ASSERT_EQ(reqs.size(), 2u);
    // The second-served request queued behind the whole first request.
    const double max_wait = std::max(reqs[0].wait, reqs[1].wait);
    EXPECT_GT(max_wait, 0.01);
}

TEST(Engine, AllSubmittedRequestsFinishExactlyOnce)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    const int n = 40;
    for (int i = 0; i < n; ++i)
        e->submit({0.01 * i, 200 + 13 * i, 5 + i % 7}, i);
    run_on_cluster(*e);
    EXPECT_EQ(e->metrics().requests().size(), static_cast<std::size_t>(n));
    // Token conservation: every prompt token and every output token except
    // the final sampled one (which never re-enters the model) is processed
    // at least once (preemption can re-process).
    std::int64_t expected = 0;
    for (const auto& r : e->metrics().requests())
        expected += r.prompt_tokens + r.output_tokens - 1;
    EXPECT_GE(e->metrics().total_tokens(), expected);
}

TEST(Engine, StepRecordsAreTimeOrderedAndConsistent)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    for (int i = 0; i < 10; ++i)
        e->submit({0.0, 300, 8}, i);
    run_on_cluster(*e);
    double prev_end = 0.0;
    for (const auto& s : e->metrics().steps()) {
        EXPECT_GE(s.start, prev_end - 1e-12);
        EXPECT_GT(s.end, s.start);
        EXPECT_NEAR(s.end - s.start, s.timing.total(), 1e-12);
        EXPECT_GT(s.batched_tokens, 0);
        prev_end = s.end;
    }
}

TEST(Engine, RejectsModelThatDoesNotFit)
{
    engine::EngineConfig cfg;
    cfg.base = {1, 1};  // Llama-17B-16E (109 GB) alone on one GPU is OK...
    cfg.with_shift_model = false;
    model::ModelConfig m = model::llama_17b_16e();
    m.weight_dtype = model::DType::kFp16;  // ...but 218 GB FP16 is not.
    EXPECT_DEATH(Engine(test_node(), m, cfg,
                        std::make_unique<FixedPolicy>(cfg.base)),
                 "does not fit");
}

TEST(Engine, RejectsInvalidSubmission)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    EXPECT_DEATH(e->submit({0.0, 0, 5}, 1), "at least one");
}

TEST(Metrics, MergeCombinesEverything)
{
    Metrics a(1.0);
    Metrics b(1.0);
    StepRecord s;
    s.start = 0.0;
    s.end = 0.5;
    s.batched_tokens = 100;
    s.cfg = {8, 1};
    a.on_step(s);
    s.start = 1.0;
    s.end = 2.0;
    s.batched_tokens = 50;
    s.cfg = {1, 8};
    b.on_step(s);
    a.merge(b);
    EXPECT_EQ(a.total_tokens(), 150);
    EXPECT_EQ(a.sp_steps(), 1);
    EXPECT_EQ(a.tp_steps(), 1);
    EXPECT_DOUBLE_EQ(a.end_time(), 2.0);
    EXPECT_DOUBLE_EQ(a.mean_throughput(), 75.0);
}

TEST(Router, RoundRobinSpreadsRequests)
{
    std::vector<std::unique_ptr<Engine>> engines;
    engine::EngineConfig cfg;
    cfg.base = {1, 1};
    for (int i = 0; i < 4; ++i)
        engines.push_back(make_engine(tiny_model(), cfg));
    Router router(std::move(engines), RoutingPolicy::kRoundRobin);
    router.run_workload(std::vector<RequestSpec>(8, {0.0, 100, 2}));
    for (std::size_t i = 0; i < router.size(); ++i)
        EXPECT_EQ(router.engine(i).metrics().requests().size(), 2u);
}

TEST(Router, LeastTokensBalancesUnevenLoad)
{
    std::vector<std::unique_ptr<Engine>> engines;
    engine::EngineConfig cfg;
    cfg.base = {1, 1};
    for (int i = 0; i < 2; ++i)
        engines.push_back(make_engine(tiny_model(), cfg));
    Router router(std::move(engines), RoutingPolicy::kLeastTokens);
    router.run_workload({
        {0.0, 10000, 100},  // heavy -> replica 0
        {0.0, 100, 2},      // light -> replica 1
        {0.0, 100, 2},      // replica 1 still lighter
    });
    EXPECT_EQ(router.engine(0).metrics().requests().size(), 1u);
    EXPECT_EQ(router.engine(1).metrics().requests().size(), 2u);
}

TEST(Router, RunWorkloadHandlesUnsortedArrivals)
{
    std::vector<std::unique_ptr<Engine>> engines;
    engines.push_back(make_engine(tiny_model(), tp8_engine_config()));
    Router router(std::move(engines));
    const std::vector<RequestSpec> workload = {
        {2.0, 100, 2}, {0.5, 100, 2}, {1.0, 100, 2}};
    const Metrics m = router.run_workload(workload);
    EXPECT_EQ(m.requests().size(), 3u);
    for (const auto& r : m.requests())
        EXPECT_GE(r.wait, -1e-12);
}

} // namespace
} // namespace shiftpar::engine
