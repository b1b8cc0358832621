/**
 * @file
 * Equivalence pins for the CostModel refactor: lifting `PerfModel` behind
 * the `model::CostModel` interface must not move a single bit of any
 * reported number. A frozen copy of the pre-interface step-time arithmetic
 * lives in this file as the reference; `PerfModel::evaluate` must match it
 * to exact double equality across a randomized (SP, TP, batch, context,
 * sliced) sweep, the factory's default must be the roofline model with
 * identical construction, and the cost-metrics instrumentation must not
 * perturb engine timings when enabled (and must not touch the registry
 * when disabled).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/test_helpers.h"
#include "hw/presets.h"
#include "model/presets.h"
#include "obs/metrics_registry.h"
#include "parallel/cost_model_factory.h"
#include "parallel/kernel_cost_model.h"
#include "parallel/perf_model.h"
#include "util/rng.h"
#include "util/units.h"

namespace shiftpar::parallel {
namespace {

/**
 * Frozen copy of the roofline step-time arithmetic as it stood before the
 * CostModel interface existed. Deliberately NOT shared with production
 * code: this is the reference the refactored path is pinned against, and
 * it must keep the exact operation order of the original.
 */
StepTiming
legacy_step_time(const hw::Node& node, const model::ModelConfig& m,
                 const PerfOptions& opts, const hw::CollectiveModel& coll,
                 const BatchWork& work, const ParallelConfig& cfg,
                 bool sliced_weights)
{
    const int g = cfg.world();
    const int rep = kv_replication(m, cfg);
    const double wbytes = model::dtype_bytes(m.weight_dtype);
    const double act_b = opts.act_bytes;

    StepTiming t;
    if (opts.engine_overhead) {
        t.overhead = opts.step_overhead_base +
                     opts.step_overhead_per_rank * (g - 1);
    }

    const std::int64_t n_raw = work.total_new_tokens();
    if (n_raw == 0)
        return t;

    const std::int64_t n = cfg.sp > 1 ? round_up(n_raw, cfg.sp) : n_raw;
    const double rows = static_cast<double>(n) / cfg.sp;

    double compute_tokens = 0.0;
    for (const auto& c : work.chunks) {
        compute_tokens += static_cast<double>(c.new_tokens) *
                          (c.is_prefill ? opts.swiftkv_prefill_factor
                                        : opts.decode_compute_inflation);
    }
    const double compute_scale =
        compute_tokens / static_cast<double>(n_raw);

    const double gemm_flops_pg =
        model::layer_gemm_flops(m, static_cast<double>(n) * compute_scale) /
        g;
    double weight_read_pg =
        model::layer_dense_weight_bytes(m) / cfg.tp +
        model::layer_expert_read_bytes(m, static_cast<double>(n)) /
            (cfg.tp * cfg.ep);
    if (sliced_weights)
        weight_read_pg *= 1.0 + opts.slicing_overhead_frac;
    const double act_bytes_pg =
        model::layer_activation_bytes(m, static_cast<double>(n)) / g;
    const double gemm_layer = node.gpu.kernel_time(
        gemm_flops_pg, weight_read_pg + act_bytes_pg,
        node.gpu.effective_gemm_flops(wbytes));

    double attn_flops = 0.0;
    double kv_traffic = 0.0;
    for (const auto& c : work.chunks) {
        const double nt = static_cast<double>(c.new_tokens);
        const double past = static_cast<double>(c.past);
        if (c.is_prefill) {
            const double f = opts.swiftkv_prefill_factor;
            attn_flops += f * model::attn_flops(m, nt, past);
            kv_traffic += f * model::kv_read_bytes(m, nt, past) +
                          model::kv_write_bytes(m, nt);
        } else {
            attn_flops += opts.decode_compute_inflation *
                          model::attn_flops(m, nt, past);
            kv_traffic += model::kv_read_bytes(m, nt, past) +
                          model::kv_write_bytes(m, nt);
        }
    }
    const double attn_flops_pg = attn_flops / g;
    const double kv_traffic_pg = kv_traffic * rep / g;
    const double attn_layer = node.gpu.kernel_time(
        attn_flops_pg, kv_traffic_pg,
        node.gpu.effective_attn_flops(model::dtype_bytes(m.kv_dtype)));

    double comm_layer = 0.0;
    if (cfg.tp > 1) {
        const double ar_bytes = rows * m.hidden_size * act_b;
        comm_layer += 2.0 * coll.all_reduce(ar_bytes, cfg.tp);
    }
    if (cfg.sp > 1) {
        const double qkv_cols =
            (m.q_heads + 2.0 * m.kv_heads * rep) * m.head_dim / cfg.tp;
        comm_layer += coll.all_to_all(rows * qkv_cols * act_b, cfg.sp);
        const double o_cols =
            static_cast<double>(m.q_heads) * m.head_dim / cfg.tp;
        comm_layer += coll.all_to_all(rows * o_cols * act_b, cfg.sp);
    }
    if (m.is_moe() && cfg.ep > 1) {
        const double routed =
            rows * m.active_experts * m.hidden_size * act_b / cfg.tp;
        comm_layer += 2.0 * coll.all_to_all(routed, cfg.ep);
    }

    t.gemm = m.num_layers * gemm_layer;
    t.attention = m.num_layers * attn_layer * opts.attention_scale;
    t.comm = m.num_layers * comm_layer * opts.comm_scale;

    const double sampled = static_cast<double>(work.num_seqs());
    const double head_flops = model::lm_head_flops(m, sampled) / g;
    const double head_bytes =
        static_cast<double>(m.vocab_size) * m.hidden_size * wbytes / g;
    t.gemm += node.gpu.kernel_time(head_flops, head_bytes,
                                   node.gpu.effective_gemm_flops(wbytes));

    if (cfg.sp > 1) {
        t.comm += opts.comm_scale *
                  coll.all_gather(
                      static_cast<double>(n) * m.hidden_size * act_b,
                      cfg.sp);
    }
    return t;
}

BatchWork
random_work(Rng& rng)
{
    BatchWork work;
    const int prefills = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < prefills; ++i) {
        work.chunks.push_back({rng.uniform_int(1, 4096),
                               rng.uniform_int(0, 8192), true});
    }
    const int decodes = static_cast<int>(rng.uniform_int(0, 64));
    for (int i = 0; i < decodes; ++i)
        work.chunks.push_back({1, rng.uniform_int(1, 8192), false});
    return work;
}

void
expect_identical(const StepTiming& a, const StepTiming& b,
                 const std::string& context)
{
    EXPECT_DOUBLE_EQ(a.gemm, b.gemm) << context;
    EXPECT_DOUBLE_EQ(a.attention, b.attention) << context;
    EXPECT_DOUBLE_EQ(a.comm, b.comm) << context;
    EXPECT_DOUBLE_EQ(a.overhead, b.overhead) << context;
}

void
randomized_equivalence_sweep(const model::ModelConfig& m,
                             const PerfOptions& opts,
                             const std::vector<ParallelConfig>& cfgs,
                             std::uint64_t seed)
{
    const hw::Node node = hw::h200_node();
    const hw::CollectiveModel coll(node.link);
    const PerfModel perf(node, m, opts);
    Rng rng(seed);
    for (int it = 0; it < 200; ++it) {
        const ParallelConfig cfg = cfgs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(cfgs.size()) - 1))];
        const BatchWork work = random_work(rng);
        const bool sliced = rng.uniform_int(0, 1) == 1;
        const StepTiming expected =
            legacy_step_time(node, m, opts, coll, work, cfg, sliced);
        const StepTiming got = perf.evaluate(work, cfg, sliced);
        expect_identical(got, expected,
                         cfg.to_string() + " iter " + std::to_string(it));
    }
}

TEST(CostModelEquivalence, RooflineMatchesFrozenLegacyMathExactly)
{
    const std::vector<ParallelConfig> cfgs = {
        {1, 1}, {1, 2}, {1, 4}, {1, 8}, {2, 1},
        {2, 2}, {2, 4}, {4, 1}, {4, 2}, {8, 1}};
    randomized_equivalence_sweep(model::llama_70b(), PerfOptions{}, cfgs,
                                 2026);
    randomized_equivalence_sweep(model::qwen_32b(), PerfOptions{}, cfgs,
                                 8'0808);
}

TEST(CostModelEquivalence, NonDefaultOptionsMatchToo)
{
    PerfOptions opts;
    opts.swiftkv_prefill_factor = 0.6;
    opts.decode_compute_inflation = 1.5;
    opts.comm_scale = 0.5;
    opts.attention_scale = 0.7;
    opts.engine_overhead = false;
    opts.slicing_overhead_frac = 0.45;
    const std::vector<ParallelConfig> cfgs = {{1, 8}, {2, 4}, {8, 1}};
    randomized_equivalence_sweep(model::llama_70b(), opts, cfgs, 17);
}

TEST(CostModelEquivalence, MoeWithExpertParallelMatches)
{
    const std::vector<ParallelConfig> cfgs = {
        {1, 8, 1}, {1, 8, 8}, {4, 2, 8}, {8, 1, 4}};
    randomized_equivalence_sweep(model::llama_17b_16e(), PerfOptions{},
                                 cfgs, 99);
}

TEST(CostModelEquivalence, FactoryDefaultIsTheRooflineModel)
{
    const hw::Node node = hw::h200_node();
    const model::ModelConfig m = model::llama_70b();
    const PerfOptions opts;
    const auto made = make_cost_model(CostModelSpec{}, node, m, opts);
    ASSERT_NE(made, nullptr);
    EXPECT_STREQ(made->name(), "roofline");

    const PerfModel direct(node, m, opts);
    const BatchWork work = BatchWork::prefill(4096);
    for (const ParallelConfig cfg :
         {ParallelConfig{1, 8}, ParallelConfig{4, 2}, ParallelConfig{8, 1}})
        expect_identical(made->evaluate(work, cfg), direct.evaluate(work, cfg),
                         cfg.to_string());
}

TEST(CostModelEquivalence, FactoryKernelKindBuildsKernelModel)
{
    const hw::Node node = hw::h200_node();
    const model::ModelConfig m = model::llama_70b();
    CostModelSpec spec;
    spec.kind = model::CostModelKind::kKernel;
    const auto made = make_cost_model(spec, node, m, PerfOptions{});
    EXPECT_STREQ(made->name(), "kernel");

    // Calibrated coefficients override the derived defaults.
    hw::KernelCoeffs coeffs =
        hw::derive_kernel_coeffs(node.gpu, node.link);
    coeffs.gemm.beta *= 3.0;
    spec.coeffs = coeffs;
    const auto tuned = make_cost_model(spec, node, m, PerfOptions{});
    const BatchWork work = BatchWork::prefill(4096);
    EXPECT_GT(tuned->evaluate(work, {1, 8}).total(),
              made->evaluate(work, {1, 8}).total());
}

TEST(CostModelEquivalence, RooflineBreakdownReportsPseudoKernels)
{
    const PerfModel perf(hw::h200_node(), model::llama_70b());
    std::vector<KernelCost> rows;
    const StepTiming t =
        perf.evaluate(BatchWork::decode(16, 2048), {4, 2}, false, &rows);
    ASSERT_EQ(rows.size(), 4u);
    double sum = 0.0;
    for (const auto& r : rows)
        sum += r.seconds;
    EXPECT_DOUBLE_EQ(sum, t.total());
}

/**
 * Satellite pin: the cost-metrics instrumentation is observation only.
 * With `cost_metrics` on, every per-request timing must be bit-identical
 * to the uninstrumented engine; with it off (the default), the engine
 * must never touch the metrics registry.
 */
TEST(CostModelEquivalence, CostMetricsDoNotPerturbEngineTimings)
{
    using shiftpar::testing::make_engine;
    using shiftpar::testing::run_on_cluster;
    using shiftpar::testing::tiny_model;
    using shiftpar::testing::tp8_engine_config;

    const auto run = [](bool metrics_on, obs::MetricsRegistry* reg) {
        obs::MetricsRegistry* prev =
            obs::MetricsRegistry::set_thread_override(reg);
        auto cfg = tp8_engine_config();
        cfg.cost_metrics = metrics_on;
        auto e = make_engine(tiny_model(), cfg);
        e->submit({0.0, 2048, 16}, 1);
        e->submit({0.5, 512, 64}, 2);
        run_on_cluster(*e);
        obs::MetricsRegistry::set_thread_override(prev);
        return e->metrics().requests();
    };

    obs::MetricsRegistry on_reg, off_reg, untouched;
    const auto with = run(true, &on_reg);
    const auto without = run(false, &off_reg);

    ASSERT_EQ(with.size(), without.size());
    for (std::size_t i = 0; i < with.size(); ++i) {
        EXPECT_DOUBLE_EQ(with[i].ttft, without[i].ttft) << i;
        EXPECT_DOUBLE_EQ(with[i].tpot, without[i].tpot) << i;
        EXPECT_DOUBLE_EQ(with[i].completion, without[i].completion) << i;
    }

    std::ostringstream on_os, off_os, untouched_os;
    on_reg.write_prometheus(on_os);
    off_reg.write_prometheus(off_os);
    untouched.write_prometheus(untouched_os);
    EXPECT_NE(on_os.str().find("shiftpar_costmodel_evals_total"),
              std::string::npos);
    EXPECT_NE(on_os.str().find("shiftpar_costmodel_kernel_share"),
              std::string::npos);
    // The disabled engine leaves the registry exactly as it found it.
    EXPECT_EQ(off_os.str(), untouched_os.str());
}

} // namespace
} // namespace shiftpar::parallel
