/** @file Tests for the paged KV cache: allocator, tables, layouts, manager. */

#include <gtest/gtest.h>

#include "kvcache/cache_manager.h"
#include "model/presets.h"

namespace shiftpar::kvcache {
namespace {

TEST(BlockAllocator, AllocateUntilExhausted)
{
    BlockAllocator a(4, 16);
    EXPECT_EQ(a.num_free(), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(a.acquire(1));
    EXPECT_FALSE(a.acquire(1));
    EXPECT_EQ(a.num_used(), 4);
    EXPECT_DOUBLE_EQ(a.utilization(), 1.0);
}

TEST(BlockAllocator, FreeReturnsBlocks)
{
    BlockAllocator a(2, 16);
    ASSERT_TRUE(a.acquire(2));
    a.release(2);
    EXPECT_EQ(a.num_free(), 2);
    EXPECT_EQ(a.num_used(), 0);
}

TEST(BlockAllocator, OverReleasePanics)
{
    // Never return more than is held: the count is the only leak check.
    BlockAllocator a(4, 16);
    ASSERT_TRUE(a.acquire(2));
    EXPECT_DEATH(a.release(3), "exceeds the 2 in use");
    a.release(2);
    EXPECT_DEATH(a.release(1), "exceeds the 0 in use");
}

TEST(BlockAllocator, BlocksForTokens)
{
    BlockAllocator a(10, 16);
    EXPECT_EQ(a.blocks_for_tokens(0), 0);
    EXPECT_EQ(a.blocks_for_tokens(1), 1);
    EXPECT_EQ(a.blocks_for_tokens(16), 1);
    EXPECT_EQ(a.blocks_for_tokens(17), 2);
}

TEST(BlockAllocator, CanAllocate)
{
    // acquire is all-or-nothing: a request larger than the free count
    // takes nothing.
    BlockAllocator a(3, 16);
    EXPECT_FALSE(a.acquire(4));
    EXPECT_EQ(a.num_free(), 3);
    EXPECT_TRUE(a.acquire(3));
    EXPECT_EQ(a.num_free(), 0);
}

TEST(BlockTable, GrowthAllocatesOnBlockBoundaries)
{
    BlockAllocator a(10, 16);
    BlockTable t;
    EXPECT_TRUE(t.append_tokens(10, a));
    EXPECT_EQ(t.num_blocks(), 1);
    EXPECT_TRUE(t.append_tokens(6, a));  // exactly fills the block
    EXPECT_EQ(t.num_blocks(), 1);
    EXPECT_TRUE(t.append_tokens(1, a));
    EXPECT_EQ(t.num_blocks(), 2);
    EXPECT_EQ(t.num_tokens(), 17);
}

TEST(BlockTable, AllOrNothingOnFailure)
{
    BlockAllocator a(2, 16);
    BlockTable t;
    // 40 tokens need 3 blocks but only 2 exist: nothing allocated.
    EXPECT_FALSE(t.append_tokens(40, a));
    EXPECT_EQ(t.num_tokens(), 0);
    EXPECT_EQ(a.num_free(), 2);
}

TEST(BlockTable, ReleaseReturnsEverything)
{
    BlockAllocator a(4, 16);
    BlockTable t;
    ASSERT_TRUE(t.append_tokens(50, a));
    t.release(a);
    EXPECT_EQ(t.num_tokens(), 0);
    EXPECT_EQ(a.num_free(), 4);
}

TEST(KvLayoutTest, DpAndTpAreNotInvariant)
{
    // Section 1: TP and DP cannot switch — incompatible cache layouts.
    const auto m = model::llama_70b();
    const KvLayout dp = KvLayout::dp(m, 8);
    const KvLayout tp = KvLayout::naive_tp(m, 8);
    EXPECT_FALSE(dp.invariant_with(tp));
    EXPECT_GT(switch_cost_bytes(m, dp, tp, 10000), 0.0);
}

TEST(KvLayoutTest, PlacementSwitchCostUsesSharedKvHeadUnit)
{
    // Cross-check of the deduplicated dtype sizing: a full reshard moves
    // every head's cache slice, priced in the same kv_head_bytes_per_token
    // unit that capacity accounting uses.
    const auto m = model::llama_70b();
    const std::int64_t cached = 10000;
    const double cost = switch_cost_bytes(m, KvLayout::dp(m, 8),
                                          KvLayout::naive_tp(m, 8), cached);
    EXPECT_DOUBLE_EQ(
        cost, static_cast<double>(m.kv_heads) *
                  static_cast<double>(cached) *
                  model::kv_head_bytes_per_token(m.head_dim, m.kv_dtype));
    EXPECT_DOUBLE_EQ(cost, static_cast<double>(cached) *
                               m.kv_bytes_per_token_layer());
}

TEST(KvLayoutTest, InvariantSwitchIsFree)
{
    const auto m = model::llama_70b();
    const KvLayout base = KvLayout::base(m, {4, 2});
    const KvLayout shift = KvLayout::shift(m, {4, 2});
    EXPECT_TRUE(base.invariant_with(shift));
    EXPECT_DOUBLE_EQ(switch_cost_bytes(m, base, shift, 1 << 20), 0.0);
}

TEST(KvLayoutTest, NaiveTpSwitchCostCountsMisplacedHeads)
{
    const auto m = model::llama_70b();
    const KvLayout base = KvLayout::base(m, {4, 2});
    const KvLayout naive = KvLayout::naive_tp(m, 8);
    const double cost = switch_cost_bytes(m, base, naive, 1000);
    EXPECT_GT(cost, 0.0);
    // Upper bound: all 8 KV heads' slices move.
    const double all = 8.0 * 1000.0 * 2.0 * m.head_dim *
                       model::dtype_bytes(m.kv_dtype);
    EXPECT_LE(cost, all);
}

TEST(KvLayoutTest, DpToDpIsFree)
{
    const auto m = model::llama_70b();
    EXPECT_DOUBLE_EQ(
        switch_cost_bytes(m, KvLayout::dp(m, 8), KvLayout::dp(m, 8), 5000),
        0.0);
}

TEST(KvLayoutTest, DescribeShowsPlacementAndHeads)
{
    const auto m = model::llama_70b();
    const std::string s = describe(KvLayout::base(m, {1, 8}));
    EXPECT_NE(s.find("head-sharded"), std::string::npos);
    EXPECT_NE(s.find("r0:0"), std::string::npos);
}

TEST(CacheManager, AdmitAndReleaseAccounting)
{
    const auto m = model::llama_70b();
    CacheManager c(1000, KvLayout::base(m, {1, 8}), 16);
    EXPECT_EQ(c.token_capacity(), 1000);
    EXPECT_TRUE(c.try_append(1, 100));
    EXPECT_EQ(c.cached_tokens(1), 100);
    EXPECT_TRUE(c.contains(1));
    EXPECT_EQ(c.num_requests(), 1u);
    c.release(1);
    EXPECT_FALSE(c.contains(1));
    EXPECT_EQ(c.free_tokens(), (1000 / 16) * 16);
}

TEST(CacheManager, RejectsWhenFull)
{
    const auto m = model::llama_70b();
    CacheManager c(64, KvLayout::base(m, {1, 8}), 16);
    EXPECT_TRUE(c.try_append(1, 64));
    EXPECT_FALSE(c.try_append(2, 1));
    EXPECT_FALSE(c.contains(2));  // failed admission leaves no residue
    c.release(1);
    EXPECT_TRUE(c.try_append(2, 1));
}

TEST(CacheManager, FailedGrowthKeepsExistingTokens)
{
    const auto m = model::llama_70b();
    CacheManager c(32, KvLayout::base(m, {1, 8}), 16);
    EXPECT_TRUE(c.try_append(1, 30));
    EXPECT_FALSE(c.try_append(1, 100));
    EXPECT_EQ(c.cached_tokens(1), 30);
}

TEST(CacheManager, InvarianceAssertPassesAndFails)
{
    const auto m = model::llama_70b();
    CacheManager c(100, KvLayout::base(m, {4, 2}), 16);
    c.assert_invariant_with(KvLayout::shift(m, {4, 2}));
    EXPECT_DEATH(c.assert_invariant_with(KvLayout::naive_tp(m, 8)),
                 "not invariant");
}

TEST(CacheManager, UtilizationTracksUsage)
{
    const auto m = model::llama_70b();
    CacheManager c(160, KvLayout::base(m, {1, 8}), 16);
    EXPECT_DOUBLE_EQ(c.utilization(), 0.0);
    c.try_append(1, 80);
    EXPECT_DOUBLE_EQ(c.utilization(), 0.5);
}

namespace {

/** Records eviction instants so tests can pin the victim sequence. */
struct EvictionLog : obs::TraceSink
{
    std::vector<std::string> instants;
    void
    on_instant(obs::EngineId, double, const std::string& name) override
    {
        instants.push_back(name);
    }
};

/** Fill three evictable prefix entries (keys 7, 3, 5 in LRU order) into
 *  `c`, optionally after `dummies` empty entries that perturb the
 *  unordered_map's bucket layout without being evictable. */
void
stage_prefixes(CacheManager& c, int dummies)
{
    for (int i = 0; i < dummies; ++i)
        c.attach_prefix(100 + i, 0);
    for (const PrefixKey key : {7, 3, 5}) {
        c.attach_prefix(key, 32);
        EXPECT_TRUE(c.try_append_prefix(key, 32));
        c.detach_prefix(key);
    }
}

} // namespace

// Regression guard for the shiftlint `unordered-emit` finding in
// evict_idle_prefixes: victim selection iterates an unordered_map, so it
// must be a total order over (last_use, key) — never hash-bucket order,
// which varies with the map's insertion history. The two managers here
// hold identical evictable entries in different bucket layouts and must
// report byte-identical eviction traces.
TEST(CacheManager, EvictionOrderIndependentOfHashLayout)
{
    const auto m = model::llama_70b();
    const double clock = 0.0;

    std::vector<std::vector<std::string>> traces;
    for (const int dummies : {0, 29}) {
        CacheManager c(160, KvLayout::base(m, {1, 8}), 16);
        EvictionLog log;
        c.set_trace(&log, 0, &clock);
        stage_prefixes(c, dummies);
        // 96 of 160 tokens are held by idle prefixes; admitting 160
        // evicts all three, least recently used first.
        EXPECT_TRUE(c.try_append(1, 160));
        traces.push_back(log.instants);
    }

    const std::vector<std::string> expected = {
        "prefix_evict #7", "prefix_evict #3", "prefix_evict #5"};
    EXPECT_EQ(traces[0], expected);
    EXPECT_EQ(traces[1], expected);
}

} // namespace
} // namespace shiftpar::kvcache
