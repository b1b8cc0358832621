/**
 * @file
 * Golden-number tests: the perf model's outputs are re-derived by hand
 * from the roofline/alpha-beta formulas for simple cases and compared
 * exactly. Any unintentional change to the cost accounting fails here.
 */

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "model/flops.h"
#include "parallel/perf_model.h"

namespace shiftpar::parallel {
namespace {

/** A hand-analyzable model: one layer, MHA, small dims. */
model::ModelConfig
golden_model()
{
    model::ModelConfig m;
    m.name = "golden";
    m.num_layers = 1;
    m.hidden_size = 1024;
    m.q_heads = 8;
    m.kv_heads = 8;
    m.head_dim = 128;
    m.intermediate_size = 2048;
    m.vocab_size = 1000;
    m.weight_dtype = model::DType::kFp8;
    m.validate();
    return m;
}

class GoldenPerf : public ::testing::Test
{
  protected:
    hw::Node node_ = hw::h200_node();
    model::ModelConfig m_ = golden_model();
    PerfOptions opts_;
    // Exact derating constants from the presets.
    double gemm_rate_ = node_.gpu.effective_gemm_flops(1.0);
    double attn_rate_ = node_.gpu.effective_attn_flops(2.0);
    double hbm_ = node_.gpu.effective_bw();
    double link_bw_ = node_.link.bw * node_.link.efficiency;
};

TEST_F(GoldenPerf, SingleGpuPrefillMatchesClosedForm)
{
    const PerfModel perf(node_, m_, opts_);
    const double n = 4096.0;
    const auto t = perf.evaluate(BatchWork::prefill(4096), {1, 1});

    // GEMM region: compute-bound at this size.
    const double gemm_flops = model::layer_gemm_flops(m_, n);
    const double lm_flops = model::lm_head_flops(m_, 1.0);
    const double gemm_bytes = model::layer_weight_read_bytes(m_, n) +
                              model::layer_activation_bytes(m_, n);
    const double lm_bytes =
        static_cast<double>(m_.vocab_size) * m_.hidden_size;
    const double expect_gemm =
        std::max(gemm_flops / gemm_rate_, gemm_bytes / hbm_) +
        node_.gpu.kernel_overhead +
        std::max(lm_flops / gemm_rate_, lm_bytes / hbm_) +
        node_.gpu.kernel_overhead;
    EXPECT_NEAR(t.gemm, expect_gemm, expect_gemm * 1e-12);

    // Attention region.
    const double attn_flops = model::attn_flops(m_, n, 0.0);
    const double kv_bytes = model::kv_read_bytes(m_, n, 0.0) +
                            model::kv_write_bytes(m_, n);
    const double expect_attn =
        std::max(attn_flops / attn_rate_, kv_bytes / hbm_) +
        node_.gpu.kernel_overhead;
    EXPECT_NEAR(t.attention, expect_attn, expect_attn * 1e-12);

    // No comm on one GPU; overhead is the base constant.
    EXPECT_DOUBLE_EQ(t.comm, 0.0);
    EXPECT_DOUBLE_EQ(t.overhead, opts_.step_overhead_base);
}

TEST_F(GoldenPerf, Tp2AllReduceMatchesAlphaBeta)
{
    const PerfModel perf(node_, m_, opts_);
    const double n = 1000.0;
    const auto t = perf.evaluate(BatchWork::prefill(1000), {1, 2});

    // Per layer: two all-reduces of n*d*act_bytes across 2 ranks.
    const double bytes = n * m_.hidden_size * opts_.act_bytes;
    const double vol = 2.0 * (2.0 - 1.0) / 2.0 * bytes;  // 2(P-1)/P
    const double one_ar = vol / link_bw_ + 2.0 * node_.link.latency;
    EXPECT_NEAR(t.comm, 2.0 * one_ar, 1e-15);
}

TEST_F(GoldenPerf, Sp2AllToAllMatchesAlphaBeta)
{
    const PerfModel perf(node_, m_, opts_);
    const double n = 1000.0;
    const auto t = perf.evaluate(BatchWork::prefill(1000), {2, 1});

    const double rows = n / 2.0;
    const double qkv_cols =
        (m_.q_heads + 2.0 * m_.kv_heads) * m_.head_dim;  // no replication
    const double o_cols = static_cast<double>(m_.q_heads) * m_.head_dim;
    const auto a2a = [&](double buffer) {
        return (2.0 - 1.0) / 2.0 * buffer / link_bw_ + node_.link.latency;
    };
    const double per_layer = a2a(rows * qkv_cols * opts_.act_bytes) +
                             a2a(rows * o_cols * opts_.act_bytes);
    // Plus the final sequence all-gather of n*d*act_bytes.
    const double ag = (2.0 - 1.0) / 2.0 * n * m_.hidden_size *
                          opts_.act_bytes / link_bw_ +
                      node_.link.latency;
    EXPECT_NEAR(t.comm, per_layer + ag, 1e-15);
}

TEST_F(GoldenPerf, DecodeWeightStreamIsTheSpBottleneck)
{
    // Pure SP decode of batch 8 (one row per rank): the GEMM region must
    // be exactly the full-layer weight stream (memory-bound).
    const PerfModel perf(node_, m_, opts_);
    const auto t = perf.evaluate(BatchWork::decode(8, 512), {8, 1});
    const double bytes = model::layer_weight_read_bytes(m_, 8.0) +
                         model::layer_activation_bytes(m_, 8.0) / 8.0;
    const double lm_bytes =
        static_cast<double>(m_.vocab_size) * m_.hidden_size / 8.0;
    const double expect = bytes / hbm_ + node_.gpu.kernel_overhead +
                          lm_bytes / hbm_ + node_.gpu.kernel_overhead;
    EXPECT_NEAR(t.gemm, expect, expect * 1e-9);
}

TEST_F(GoldenPerf, PaddingRoundsRowsUp)
{
    // Batch 9 on SP=8 pads to 16: identical GEMM cost to batch 16 and
    // strictly more than unpadded batch 9 on TP.
    const PerfModel perf(node_, m_, opts_);
    const auto t9 = perf.evaluate(BatchWork::decode(9, 256), {8, 1});
    const auto t16 = perf.evaluate(BatchWork::decode(16, 256), {8, 1});
    EXPECT_DOUBLE_EQ(t9.gemm, t16.gemm);
}

TEST_F(GoldenPerf, OverheadFormula)
{
    const PerfModel perf(node_, m_, opts_);
    for (int g : {1, 2, 4, 8}) {
        const ParallelConfig cfg{1, g};
        const auto t = perf.evaluate(BatchWork::decode(1, 16), cfg);
        EXPECT_DOUBLE_EQ(t.overhead,
                         opts_.step_overhead_base +
                             opts_.step_overhead_per_rank * (g - 1));
    }
}

TEST_F(GoldenPerf, SwiftKvScalesGemmExactly)
{
    PerfOptions swift = opts_;
    swift.swiftkv_prefill_factor = 0.5;
    const PerfModel plain(node_, m_, opts_);
    const PerfModel fast(node_, m_, swift);
    const double n = 100000.0;  // deep in the compute-bound regime
    const auto tp = plain.evaluate(BatchWork::prefill(100000), {1, 1});
    const auto tf = fast.evaluate(BatchWork::prefill(100000), {1, 1});
    // Compute-bound: gemm time halves up to the fixed kernel overheads
    // and weight-stream floor.
    EXPECT_NEAR(tf.gemm / tp.gemm, 0.5, 0.02);
    (void)n;
}

} // namespace
} // namespace shiftpar::parallel
