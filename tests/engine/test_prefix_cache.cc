/** @file Tests for automatic prefix caching: cache entries, scheduler
 *  integration, eviction, and end-to-end TTFT effect. */

#include <gtest/gtest.h>

#include "common/test_helpers.h"
#include "kvcache/cache_manager.h"
#include "model/presets.h"
#include "workload/agentic.h"

namespace shiftpar {
namespace {

using engine::RequestSpec;
using kvcache::CacheManager;
using kvcache::KvLayout;
using shiftpar::testing::make_engine;
using shiftpar::testing::run_on_cluster;
using shiftpar::testing::tiny_model;
using shiftpar::testing::tp8_engine_config;

class PrefixCacheManagerTest : public ::testing::Test
{
  protected:
    PrefixCacheManagerTest()
        : cache_(4096, KvLayout::base(model::llama_70b(), {1, 8}), 16)
    {
    }

    CacheManager cache_;
};

TEST_F(PrefixCacheManagerTest, FirstAttachIsFillerWithNoHit)
{
    const auto a = cache_.attach_prefix(7, 1000);
    EXPECT_EQ(a.hit_tokens, 0);
    EXPECT_TRUE(a.is_filler);
    EXPECT_EQ(cache_.prefix_entry_count(), 1u);
}

TEST_F(PrefixCacheManagerTest, SecondAttachHitsFilledEntry)
{
    cache_.attach_prefix(7, 1000);
    ASSERT_TRUE(cache_.try_append_prefix(7, 1000));
    const auto b = cache_.attach_prefix(7, 1000);
    EXPECT_EQ(b.hit_tokens, 1000);
    EXPECT_FALSE(b.is_filler);
    EXPECT_EQ(cache_.prefix_hit_tokens(), 1000);
}

TEST_F(PrefixCacheManagerTest, PartialEntryGivesPartialHit)
{
    cache_.attach_prefix(7, 1000);
    ASSERT_TRUE(cache_.try_append_prefix(7, 300));
    // Filler still active: the second attach hits 300 and does not fill.
    const auto b = cache_.attach_prefix(7, 1000);
    EXPECT_EQ(b.hit_tokens, 300);
    EXPECT_FALSE(b.is_filler);
}

TEST_F(PrefixCacheManagerTest, GrowingTargetResumesFilling)
{
    // Agent contexts grow turn over turn; a later attach with a larger
    // target extends the same entry.
    cache_.attach_prefix(7, 500);
    ASSERT_TRUE(cache_.try_append_prefix(7, 500));
    cache_.detach_prefix(7);
    const auto b = cache_.attach_prefix(7, 900);
    EXPECT_EQ(b.hit_tokens, 500);
    EXPECT_TRUE(b.is_filler);  // must extend 500 -> 900
}

TEST_F(PrefixCacheManagerTest, EntrySurvivesDetach)
{
    cache_.attach_prefix(7, 100);
    ASSERT_TRUE(cache_.try_append_prefix(7, 100));
    cache_.detach_prefix(7);
    EXPECT_EQ(cache_.prefix_cached_tokens(7), 100);
}

TEST_F(PrefixCacheManagerTest, IdleEntriesEvictedUnderPressure)
{
    // Fill an idle prefix, then demand the whole pool for a request.
    cache_.attach_prefix(7, 2048);
    ASSERT_TRUE(cache_.try_append_prefix(7, 2048));
    cache_.detach_prefix(7);
    EXPECT_TRUE(cache_.try_append(1, 4000));
    EXPECT_EQ(cache_.prefix_entry_count(), 0u);  // evicted
}

TEST_F(PrefixCacheManagerTest, PinnedEntriesAreNotEvicted)
{
    cache_.attach_prefix(7, 2048);
    ASSERT_TRUE(cache_.try_append_prefix(7, 2048));
    // Still attached: the big allocation must fail rather than evict.
    EXPECT_FALSE(cache_.try_append(1, 4000));
    EXPECT_EQ(cache_.prefix_cached_tokens(7), 2048);
}

TEST_F(PrefixCacheManagerTest, LruEvictionOrder)
{
    cache_.attach_prefix(1, 1024);
    ASSERT_TRUE(cache_.try_append_prefix(1, 1024));
    cache_.detach_prefix(1);
    cache_.attach_prefix(2, 1024);
    ASSERT_TRUE(cache_.try_append_prefix(2, 1024));
    cache_.detach_prefix(2);
    // Touch entry 1 so entry 2 becomes the LRU.
    cache_.attach_prefix(1, 1024);
    cache_.detach_prefix(1);
    ASSERT_TRUE(cache_.evict_idle_prefixes(
        cache_.token_capacity() / 16 - 64));  // force one eviction
    EXPECT_GT(cache_.prefix_cached_tokens(1), 0);
    EXPECT_EQ(cache_.prefix_cached_tokens(2), 0);
}

TEST(PrefixEngine, SecondTurnTtftDropsWithCaching)
{
    auto cfg = tp8_engine_config();
    auto e = make_engine(tiny_model(), cfg);
    // Two sequential turns of one agent: 40k shared + 500 new each (long
    // enough that the shared part spans several prefill chunks).
    RequestSpec t1{0.0, 40500, 4, 0, 40000};
    RequestSpec t2{100.0, 41000, 4, 0, 40500};
    e->submit(t1, 1);
    e->submit(t2, 2);
    run_on_cluster(*e);
    const auto& reqs = e->metrics().requests();
    ASSERT_EQ(reqs.size(), 2u);
    // Turn 2 prefills only ~1k fresh tokens; its TTFT must be far below
    // turn 1's even though its prompt is longer.
    EXPECT_LT(reqs[1].ttft, reqs[0].ttft / 2.0);
    EXPECT_GE(e->cache().prefix_hit_tokens(), 40000);
}

TEST(PrefixEngine, CachingDisabledKeepsFullPrefill)
{
    auto cfg = tp8_engine_config();
    cfg.sched.enable_prefix_caching = false;
    auto e = make_engine(tiny_model(), cfg);
    e->submit({0.0, 4500, 4, 0, 4000}, 1);
    e->submit({100.0, 5000, 4, 0, 4500}, 2);
    run_on_cluster(*e);
    EXPECT_EQ(e->cache().prefix_hit_tokens(), 0);
    const auto& reqs = e->metrics().requests();
    // Without caching the longer second prompt takes longer.
    EXPECT_GT(reqs[1].ttft, reqs[0].ttft * 0.9);
}

TEST(PrefixEngine, TokensProcessedDropWithCaching)
{
    Rng rng(3);
    workload::AgenticOptions opts;
    opts.num_agents = 4;
    opts.turns_per_agent = 5;
    const auto reqs = workload::agentic_sessions(rng, opts);

    auto run = [&](bool enabled) {
        auto cfg = tp8_engine_config();
        cfg.sched.enable_prefix_caching = enabled;
        auto e = make_engine(tiny_model(), cfg);
        engine::RequestId id = 0;
        for (const auto& r : reqs)
            e->submit(r, id++);
        run_on_cluster(*e);
        return e->metrics().total_tokens();
    };
    const auto with_cache = run(true);
    const auto without = run(false);
    EXPECT_LT(with_cache, without / 2);  // most prompt tokens are shared
}

TEST(PrefixEngine, ConcurrentSharersAllFinish)
{
    // Many requests with the same prefix submitted at once: one fills,
    // the others take partial hits; everyone must finish.
    auto e = make_engine(tiny_model(), tp8_engine_config());
    for (int i = 0; i < 12; ++i)
        e->submit({0.0, 3000, 8, /*prefix_id=*/5, /*prefix_tokens=*/2500},
                  i);
    run_on_cluster(*e);
    EXPECT_EQ(e->metrics().requests().size(), 12u);
    EXPECT_EQ(e->cache().num_requests(), 0u);
}

TEST_F(PrefixCacheManagerTest, DetachUnknownKeyIsNoOp)
{
    cache_.detach_prefix(999);  // must not crash or underflow
    EXPECT_EQ(cache_.prefix_entry_count(), 0u);
}

TEST_F(PrefixCacheManagerTest, FillerHandoffAfterDetach)
{
    // Filler A departs mid-fill; the next attacher B becomes the filler
    // and resumes from A's progress.
    const auto a = cache_.attach_prefix(7, 1000);
    ASSERT_TRUE(a.is_filler);
    ASSERT_TRUE(cache_.try_append_prefix(7, 400));
    cache_.detach_prefix(7);

    const auto b = cache_.attach_prefix(7, 1000);
    EXPECT_EQ(b.hit_tokens, 400);
    EXPECT_TRUE(b.is_filler);
    ASSERT_TRUE(cache_.try_append_prefix(7, 600));
    const auto c = cache_.attach_prefix(7, 1000);
    EXPECT_EQ(c.hit_tokens, 1000);
    EXPECT_FALSE(c.is_filler);
}

TEST_F(PrefixCacheManagerTest, EvictionTargetUnreachableReturnsFalse)
{
    cache_.attach_prefix(7, 100);
    ASSERT_TRUE(cache_.try_append_prefix(7, 100));  // pinned
    EXPECT_FALSE(cache_.evict_idle_prefixes(1 << 20));
}

TEST(PrefixEngine, PreemptedFillerResumesFromEntry)
{
    // A filler that gets preempted re-attaches and skips the prefix part
    // it already wrote (the entry survives preemption).
    auto cfg = tp8_engine_config();
    auto e = make_engine(tiny_model(), cfg);
    // First request fills the prefix fully; later requests reuse it even
    // after heavy churn forces preemptions.
    for (int i = 0; i < 16; ++i)
        e->submit({0.1 * i, 20000, 16, /*prefix_id=*/3,
                   /*prefix_tokens=*/18000},
                  i);
    run_on_cluster(*e);
    EXPECT_EQ(e->metrics().requests().size(), 16u);
    // The shared 18k prefix was served from cache many times over.
    EXPECT_GT(e->cache().prefix_hit_tokens(), 15 * 15000);
}

TEST(AgenticWorkload, PrefixesGrowWithinSession)
{
    Rng rng(9);
    workload::AgenticOptions opts;
    opts.num_agents = 2;
    opts.turns_per_agent = 4;
    const auto reqs = workload::agentic_sessions(rng, opts);
    ASSERT_EQ(reqs.size(), 8u);
    // Group by agent and check prefix growth + validity.
    for (int agent = 0; agent < 2; ++agent) {
        std::int64_t last_prefix = -1;
        for (const auto& r : reqs) {
            if (r.prefix_id != agent)
                continue;
            EXPECT_LE(r.prefix_tokens, r.prompt_tokens);
            EXPECT_GT(r.prefix_tokens, last_prefix);
            last_prefix = r.prefix_tokens;
        }
    }
}

} // namespace
} // namespace shiftpar
