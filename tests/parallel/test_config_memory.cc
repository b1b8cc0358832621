/** @file Tests for parallel config validation and memory planning (Eq. 1). */

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "model/presets.h"
#include "parallel/memory.h"
#include "parallel/strategy.h"
#include "util/units.h"

namespace shiftpar::parallel {
namespace {

TEST(Strategy, NamesRoundTrip)
{
    for (Strategy s : {Strategy::kDp, Strategy::kTp, Strategy::kSp,
                       Strategy::kSpTp, Strategy::kShift}) {
        EXPECT_EQ(parse_strategy(strategy_name(s)), s);
    }
    EXPECT_EQ(parse_strategy("shift"), Strategy::kShift);
    EXPECT_EQ(parse_strategy("SPTP"), Strategy::kSpTp);
    EXPECT_DEATH(parse_strategy("bogus"), "unknown");
}

TEST(Config, WorldAndShift)
{
    const ParallelConfig c{4, 2};
    EXPECT_EQ(c.world(), 8);
    EXPECT_EQ(c.shift_config(), (ParallelConfig{1, 8}));
    EXPECT_FALSE(c.is_full_tp());
    EXPECT_TRUE(c.shift_config().is_full_tp());
    EXPECT_EQ(c.to_string(), "(SP=4,TP=2)");
}

TEST(Config, KvReplicationFactor)
{
    const auto l70 = model::llama_70b();    // 8 kv heads
    const auto q30 = model::qwen_30b_a3b(); // 4 kv heads
    EXPECT_EQ(kv_replication(l70, {8, 1}), 1);
    EXPECT_EQ(kv_replication(l70, {4, 4}), 2);
    EXPECT_EQ(kv_replication(q30, {8, 1}), 2);
    EXPECT_EQ(kv_replication(q30, {2, 2}), 1);
}

TEST(Config, ValidationErrors)
{
    const auto m = model::llama_70b();
    EXPECT_TRUE(validate_config(m, {8, 1}).empty());
    EXPECT_TRUE(validate_config(m, {4, 2}).empty());
    // 64 q heads across 128 ranks is impossible.
    EXPECT_FALSE(validate_config(m, {16, 8}).empty());
    // Degrees must be positive.
    EXPECT_FALSE(validate_config(m, {0, 8}).empty());
}

TEST(Config, ValidationRejectsUnevenKvSplit)
{
    model::ModelConfig m = model::llama_70b();
    m.q_heads = 48;
    m.kv_heads = 6;
    m.params_total_override = 1e9;
    // 6 kv heads on 4 ranks: neither divisible nor replicable.
    EXPECT_FALSE(validate_config(m, {4, 1}).empty());
    EXPECT_TRUE(validate_config(m, {3, 1}).empty());
    EXPECT_TRUE(validate_config(m, {12, 1}).empty());  // replicate 2x
}

TEST(Config, ValidationErrorText)
{
    // One case per failing branch, pinned to the full message.
    const auto l70 = model::llama_70b();
    EXPECT_EQ(validate_config(l70, {0, 8}),
              "parallel degrees must be >= 1, got (SP=0,TP=8)");
    EXPECT_EQ(validate_config(l70, {16, 8}),
              "Llama-70B: 64 query heads are not divisible across 128 "
              "ranks");

    model::ModelConfig six_kv = l70;
    six_kv.q_heads = 48;
    six_kv.kv_heads = 6;
    EXPECT_EQ(validate_config(six_kv, {4, 1}),
              "Llama-70B: 6 KV heads are not divisible across 4 ranks");
    EXPECT_EQ(validate_config(six_kv, {8, 1}),
              "Llama-70B: cannot replicate 6 KV heads evenly onto 8 ranks");

    EXPECT_EQ(validate_config(l70, {8, 1, 0}),
              "EP degree must be >= 1, got 0");
    EXPECT_EQ(validate_config(l70, {8, 1, 2}),
              "Llama-70B: EP requires a mixture-of-experts model");

    model::ModelConfig q30 = model::qwen_30b_a3b();
    EXPECT_EQ(validate_config(q30, {4, 1, 3}),
              "Qwen-30B-A3B: EP=3 does not divide the group of 4 ranks");
    q30.num_experts = 100;
    EXPECT_EQ(validate_config(q30, {8, 1, 8}),
              "Qwen-30B-A3B: 100 experts are not divisible across EP=8");
}

TEST(Memory, Eq1ShiftOverheadIsOneOverSp)
{
    const auto m = model::llama_70b();
    const auto gpu = hw::h200();
    const auto plan = plan_memory(m, gpu, {8, 1}, /*with_shift_model=*/true);
    // Paper: "when SP = 8, the shift model's memory overhead is 12.5%".
    EXPECT_NEAR(plan.shift_overhead_frac(), 0.125, 1e-9);
    EXPECT_DOUBLE_EQ(plan.base_weight_bytes, m.weight_bytes());
    EXPECT_DOUBLE_EQ(plan.shift_weight_bytes, m.weight_bytes() / 8.0);
}

TEST(Memory, Eq1WithCombinedBase)
{
    const auto m = model::llama_70b();
    const auto plan =
        plan_memory(m, hw::h200(), {4, 2}, /*with_shift_model=*/true);
    EXPECT_DOUBLE_EQ(plan.base_weight_bytes, m.weight_bytes() / 2.0);
    EXPECT_DOUBLE_EQ(plan.shift_weight_bytes, m.weight_bytes() / 8.0);
    EXPECT_NEAR(plan.shift_overhead_frac(), 0.25, 1e-9);  // 1/SP
}

TEST(Memory, SlicingHasNoWeightOverhead)
{
    const auto m = model::llama_70b();
    const auto plan = plan_memory(m, hw::h200(), {8, 1}, true,
                                  WeightStrategy::kOnTheFlySlicing);
    EXPECT_DOUBLE_EQ(plan.shift_weight_bytes, 0.0);
}

TEST(Memory, FullTpBaseNeedsNoShiftModel)
{
    const auto m = model::llama_70b();
    const auto plan = plan_memory(m, hw::h200(), {1, 8}, true);
    EXPECT_DOUBLE_EQ(plan.shift_weight_bytes, 0.0);
}

TEST(Memory, KvCapacityAccounting)
{
    const auto m = model::llama_70b();
    const auto gpu = hw::h200();
    const auto plan = plan_memory(m, gpu, {1, 8}, false);
    // Pool = util*HBM - W/8 - workspace.
    const double expected_pool =
        gpu.hbm_bytes * 0.92 - m.weight_bytes() / 8.0 - 4.0e9;
    EXPECT_NEAR(plan.kv_pool_bytes, expected_pool, 1.0);
    // Per-token per-GPU: heads sharded 8 ways, no replication.
    EXPECT_DOUBLE_EQ(plan.kv_bytes_per_token_per_gpu,
                     m.kv_bytes_per_token() / 8.0);
    EXPECT_EQ(plan.kv_token_capacity,
              static_cast<std::int64_t>(expected_pool /
                                        (m.kv_bytes_per_token() / 8.0)));
}

TEST(Memory, ReplicationInflatesPerTokenBytes)
{
    const auto m = model::qwen_30b_a3b();  // 4 kv heads
    const auto p8 = plan_memory(m, hw::h200(), {8, 1}, false);
    const auto p4 = plan_memory(m, hw::h200(), {4, 1}, false);
    // 8 ranks replicate KV 2x: per-GPU per-token bytes match the 4-rank
    // sharding instead of improving.
    EXPECT_DOUBLE_EQ(p8.kv_bytes_per_token_per_gpu,
                     p4.kv_bytes_per_token_per_gpu);
}

TEST(Memory, MoeBarelyFitsAtSp8)
{
    // Section 4.6: Llama-17B-16E (109 GB FP8) "barely fits into a single
    // GPU and when SP=8 is used, there is no memory left in the KV cache".
    const auto m = model::llama_17b_16e();
    const auto plan = plan_memory(m, hw::h200(), {8, 1}, true);
    EXPECT_LT(plan.kv_pool_bytes, 0.05 * hw::h200().hbm_bytes);
    // With TP=2 there is healthy KV room (the paper's base (SP=4, TP=2)).
    const auto plan2 = plan_memory(m, hw::h200(), {4, 2}, true);
    EXPECT_GT(plan2.kv_pool_bytes, 0.25 * hw::h200().hbm_bytes);
}

TEST(Memory, DetectsDoesNotFit)
{
    // The same MoE at FP16 (218 GB) cannot fit one GPU at all.
    model::ModelConfig m = model::llama_17b_16e();
    m.weight_dtype = model::DType::kFp16;
    const auto plan = plan_memory(m, hw::h200(), {8, 1}, true);
    EXPECT_FALSE(plan.fits());
    EXPECT_EQ(plan.kv_token_capacity, 0);
}

TEST(Memory, DescribeMentionsFit)
{
    model::ModelConfig big = model::llama_17b_16e();
    big.weight_dtype = model::DType::kFp16;
    EXPECT_NE(describe(plan_memory(big, hw::h200(), {8, 1}, true))
                  .find("DOES NOT FIT"),
              std::string::npos);
    EXPECT_NE(describe(plan_memory(model::llama_17b_16e(), hw::h200(),
                                   {4, 2}, true))
                  .find("KV pool"),
              std::string::npos);
}

} // namespace
} // namespace shiftpar::parallel
