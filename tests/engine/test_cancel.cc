/** @file Tests for client-side request cancellation. */

#include <gtest/gtest.h>

#include "common/test_helpers.h"
#include "parallel/perf_model.h"

namespace shiftpar::engine {
namespace {

using shiftpar::testing::make_engine;
using shiftpar::testing::run_on_cluster;
using shiftpar::testing::tiny_model;
using shiftpar::testing::tp8_engine_config;

TEST(Cancel, WaitingRequestRemoved)
{
    auto cfg = tp8_engine_config();
    cfg.sched.max_running_seqs = 1;
    auto e = make_engine(tiny_model(), cfg);
    e->submit({0.0, 5000, 50}, 1);
    e->submit({0.0, 5000, 50}, 2);  // queued behind request 1
    EXPECT_TRUE(e->cancel(2));
    run_on_cluster(*e);
    EXPECT_EQ(e->metrics().requests().size(), 1u);
    EXPECT_EQ(e->metrics().requests()[0].id, 1);
    EXPECT_EQ(e->cancelled_count(), 1);
}

TEST(Cancel, RunningRequestReleasesCache)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    e->submit({0.0, 1000, 1000}, 1);
    run_on_cluster(*e, {{0.05, [&] {  // mid-decode
                             ASSERT_TRUE(e->has_work());
                             EXPECT_GT(e->cache().num_requests(), 0u);
                             EXPECT_TRUE(e->cancel(1));
                         }}});
    EXPECT_EQ(e->cache().num_requests(), 0u);
    EXPECT_FALSE(e->has_work());
    EXPECT_EQ(e->metrics().requests().size(), 0u);
}

TEST(Cancel, UnknownOrFinishedRequestsReturnFalse)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    e->submit({0.0, 100, 2}, 1);
    run_on_cluster(*e);
    EXPECT_FALSE(e->cancel(1));   // already finished
    EXPECT_FALSE(e->cancel(99));  // never existed
    EXPECT_EQ(e->cancelled_count(), 0);
}

TEST(Cancel, DoubleCancelIsIdempotent)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    e->submit({0.0, 1000, 100}, 1);
    EXPECT_TRUE(e->cancel(1));
    EXPECT_FALSE(e->cancel(1));
    EXPECT_EQ(e->cancelled_count(), 1);
}

TEST(Cancel, OtherRequestsUnaffected)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    for (int i = 0; i < 10; ++i)
        e->submit({0.0, 500, 20}, i);
    run_on_cluster(*e, {{0.02, [&] {
                             EXPECT_TRUE(e->cancel(3));
                             EXPECT_TRUE(e->cancel(7));
                         }}});
    EXPECT_EQ(e->metrics().requests().size(), 8u);
    for (const auto& rec : e->metrics().requests()) {
        EXPECT_NE(rec.id, 3);
        EXPECT_NE(rec.id, 7);
    }
}

TEST(Cancel, MigratedAwayRequestIsRejectedWithoutCrashing)
{
    // Once a request is stolen for migration it belongs to another
    // replica; a late client abort addressed to the old replica must be
    // refused (the router delivers it to the new owner instead).
    auto cfg = tp8_engine_config();
    cfg.sched.max_running_seqs = 1;
    auto e = make_engine(tiny_model(), cfg);
    e->submit({0.0, 5000, 50}, 1);
    e->submit({0.0, 5000, 50}, 2);  // queued, zero progress: stealable
    const auto stolen = e->steal_waiting();
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(stolen->second, 2);
    EXPECT_FALSE(e->cancel(2));
    EXPECT_EQ(e->cancelled_count(), 0);
    run_on_cluster(*e);
    EXPECT_EQ(e->metrics().requests().size(), 1u);
}

TEST(Cancel, StealSkipsRequestsWithProgress)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    e->submit({0.0, 1000, 100}, 1);
    run_on_cluster(*e, {{0.05, [&] {  // request 1 is running
                             EXPECT_FALSE(e->steal_waiting().has_value());
                         }}});
    EXPECT_EQ(e->metrics().requests().size(), 1u);
}

TEST(Cancel, PrefilledRequestReleasesKvOnCancel)
{
    // A migrated-in request (disaggregated decode) admits its prompt KV
    // without compute; cancelling it mid-decode must release that KV.
    auto e = make_engine(tiny_model(), tp8_engine_config());
    e->submit_prefilled({0.0, 4096, 64}, 1);
    run_on_cluster(*e, {{0.01, [&] {  // mid-decode
                             ASSERT_TRUE(e->has_work());
                             EXPECT_GT(e->cache().num_requests(), 0u);
                             EXPECT_TRUE(e->cancel(1));
                         }}});
    EXPECT_EQ(e->cache().num_requests(), 0u);
    EXPECT_FALSE(e->has_work());
    EXPECT_EQ(e->metrics().requests().size(), 0u);
}

TEST(Cancel, WaitingPrefilledRequestCancelsCleanly)
{
    // Cancel lands between KV-handoff delivery and decode admission: the
    // request is waiting with prefilled state and must cancel cleanly.
    auto cfg = tp8_engine_config();
    cfg.sched.max_running_seqs = 1;
    auto e = make_engine(tiny_model(), cfg);
    e->submit_prefilled({0.0, 4096, 64}, 1);
    e->submit_prefilled({0.0, 4096, 64}, 2);  // queued behind request 1
    EXPECT_TRUE(e->cancel(2));
    run_on_cluster(*e);
    EXPECT_EQ(e->metrics().requests().size(), 1u);
    EXPECT_EQ(e->metrics().requests()[0].id, 1);
}

TEST(ComponentRemoval, ScalesMatchFig15Methodology)
{
    // The Fig. 15 knobs: removing a component must subtract exactly that
    // component's time.
    const auto m = tiny_model();
    const auto node = shiftpar::testing::test_node();
    const parallel::PerfModel full(node, m);
    parallel::PerfOptions no_comm;
    no_comm.comm_scale = 0.0;
    parallel::PerfOptions no_attn;
    no_attn.attention_scale = 0.0;
    parallel::PerfOptions no_engine;
    no_engine.engine_overhead = false;

    const auto work = parallel::BatchWork::prefill(4096);
    const parallel::ParallelConfig cfg{4, 2};
    const auto base = full.evaluate(work, cfg);
    EXPECT_NEAR(parallel::PerfModel(node, m, no_comm)
                    .evaluate(work, cfg)
                    .total(),
                base.total() - base.comm, 1e-12);
    EXPECT_NEAR(parallel::PerfModel(node, m, no_attn)
                    .evaluate(work, cfg)
                    .total(),
                base.total() - base.attention, 1e-12);
    EXPECT_NEAR(parallel::PerfModel(node, m, no_engine)
                    .evaluate(work, cfg)
                    .total(),
                base.total() - base.overhead, 1e-12);
}

} // namespace
} // namespace shiftpar::engine
