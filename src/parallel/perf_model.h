/**
 * @file
 * Analytical per-step performance model for all parallelism strategies.
 *
 * The model evaluates one engine iteration (a batch of prefill chunks and
 * decode tokens) under an arbitrary (SP, TP) configuration, following
 * Algorithm 1 of the paper, and returns the step time decomposed into the
 * Figure 15 components: GEMM compute, attention, communication, and engine
 * (vLLM-equivalent) overhead.
 *
 * What a step contains is worked out once, by `shape_step`: the config
 * check, engine overhead, SP padding, feature-scaled compute tokens, KV
 * replication, slicing factor and every collective payload. `PerfModel`
 * (the default `model::CostModel`, a roofline aggregate) and
 * `parallel::KernelCostModel` (kernel-decomposed) only price that
 * `StepShape`. The batch/timing vocabulary lives in `model/cost_model.h`
 * and is re-exported here as `parallel::BatchWork` / `StepTiming`.
 *
 * Strategy-distinguishing behaviour captured here:
 *  - TP shards weights (1/TP reads) but pays two all-reduces of the full
 *    `n x d` embedding per layer — comm volume independent of TP degree
 *    (Table 2's "TP x const" comm/compute ratio).
 *  - SP shards the sequence; weights are replicated across SP ranks, so a
 *    decode step streams the *whole* TP shard of the weights regardless of
 *    batch size — the worst TPOT in Table 1. Its two all-to-alls move only
 *    1/(SP*TP) of the head activations (Table 2's constant ratio).
 *  - Small batches are padded up to a multiple of SP (Section 3.2.1 load
 *    balancing), wasting up to (SP-1)/batch of the compute.
 *  - KV replication (world > kv_heads, Section 3.2.1) inflates per-rank KV
 *    traffic and the first all-to-all payload.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hw/topology.h"
#include "model/cost_model.h"
#include "model/flops.h"
#include "model/model_config.h"
#include "parallel/config.h"
#include "parallel/memory.h"

namespace shiftpar::parallel {

// Source-compatibility aliases: these types predate the CostModel
// interface and every layer refers to them under parallel::.
using model::BatchWork;
using model::CostModel;
using model::KernelCost;
using model::SeqChunk;
using model::StepTiming;

/** Engine-overhead and ablation knobs. */
struct PerfOptions
{
    /** Fixed serving-engine overhead per step, seconds. */
    double step_overhead_base = 2.0e-3;

    /** Additional coordination overhead per extra rank in the group. */
    double step_overhead_per_rank = 0.25e-3;

    /** Extra fraction of weight-read time paid by on-the-fly slicing in
     *  shift-mode steps (FP8 transpose penalty, Section 3.3.2). */
    double slicing_overhead_frac = 0.30;

    /** Activation dtype bytes (BF16 activations around FP8 GEMMs). */
    double act_bytes = 2.0;

    /**
     * SwiftKV prefill-compute factor (Section 4.5): fraction of the full
     * per-token prefill compute (GEMM + attention) that remains after the
     * SwiftKV model transformation. 1.0 = disabled.
     */
    double swiftkv_prefill_factor = 1.0;

    /**
     * Speculative-decoding compute inflation on decode chunks: the verify
     * pass processes draft_len+1 tokens to emit E accepted tokens, so each
     * emitted token costs (draft_len+1)/E target-model FLOPs (plus the
     * draft model). 1.0 = disabled.
     */
    double decode_compute_inflation = 1.0;

    /**
     * Component-removal knobs for the Fig. 15 methodology ("taking away
     * one component at a time"): scale factors on the communication and
     * attention components, and a switch for the engine overhead. 1/true
     * = the real system; 0/false = component removed.
     */
    double comm_scale = 1.0;
    double attention_scale = 1.0;
    bool engine_overhead = true;
};

/** One per-layer collective of Algorithm 1 and its payload. */
struct LayerCollective
{
    const char* kernel = "";  ///< breakdown row name ("tp_allreduce", ...)
    bool all_reduce = false;  ///< an all-reduce; otherwise an all-to-all
    int ranks = 1;            ///< ranks the collective spans
    double calls = 1.0;       ///< launches per layer
    double bytes = 0.0;       ///< payload per launch (CollectiveModel terms)
};

/**
 * What one engine step contains under a configuration (Algorithm 1,
 * Section 3.2.1), before any pricing.
 */
struct StepShape
{
    int group = 1;               ///< ranks in the engine group (SP * TP)
    int kv_rep = 1;              ///< KV-head replication factor
    double overhead = 0.0;       ///< engine overhead, s (0 when removed)
    std::int64_t tokens = 0;     ///< batch tokens padded to a multiple of SP
    double rows = 0.0;           ///< sequence rows per GPU (tokens / SP)
    double compute_tokens = 0.0; ///< padded tokens after feature scaling
    double expert_read = 0.0;    ///< expert bytes one GPU streams per layer
    double sampled = 0.0;        ///< positions the LM head samples
    double slice = 1.0;          ///< weight-traffic factor of slicing
    std::array<LayerCollective, 4> collectives{};  ///< Algorithm 1 order
    int num_collectives = 0;
    double gather_bytes = 0.0;   ///< final SP all-gather payload (line 13)
};

/**
 * Shape one step: validate `cfg` (fatal when invalid or larger than the
 * node) and derive everything both cost models price. An empty batch
 * yields `tokens == 0` with only the group, KV replication and overhead
 * filled in.
 */
StepShape shape_step(const hw::Node& node, const model::ModelConfig& m,
                     const PerfOptions& opts, const BatchWork& work,
                     const ParallelConfig& cfg, bool sliced_weights);

/** Attention work of one chunk for the whole group, per layer. */
struct ChunkAttention
{
    double flops = 0.0;
    double kv_bytes = 0.0;  ///< KV-cache reads + writes (one KV-head copy)
};

/**
 * Attention work of `c` after feature scaling. SwiftKV skips attention in
 * the reduced layers during prefill. Speculative verification queries
 * attend with draft_len+1 positions per emitted token, inflating decode
 * FLOPs; the cache is still streamed once per chunk, so reads are not
 * inflated.
 */
inline ChunkAttention
chunk_attention(const model::ModelConfig& m, const PerfOptions& opts,
                const SeqChunk& c)
{
    const double nt = static_cast<double>(c.new_tokens);
    const double past = static_cast<double>(c.past);
    if (c.is_prefill) {
        const double f = opts.swiftkv_prefill_factor;
        return {f * model::attn_flops(m, nt, past),
                f * model::kv_read_bytes(m, nt, past) +
                    model::kv_write_bytes(m, nt)};
    }
    return {opts.decode_compute_inflation * model::attn_flops(m, nt, past),
            model::kv_read_bytes(m, nt, past) +
                model::kv_write_bytes(m, nt)};
}

/**
 * The roofline step-cost model (default `model::CostModel`).
 *
 * Construct once per (node, model) pair and query with any valid
 * configuration; the model is stateless across calls.
 */
class PerfModel : public model::CostModel
{
  public:
    PerfModel(hw::Node node, model::ModelConfig m, PerfOptions opts = {});

    const char* name() const override { return "roofline"; }

    /**
     * Time one engine iteration (see `model::CostModel::evaluate`). The
     * optional breakdown reports the four roofline aggregates as
     * pseudo-kernels — this model has no finer granularity.
     */
    StepTiming evaluate(const BatchWork& work, const ParallelConfig& cfg,
                        bool sliced_weights = false,
                        std::vector<KernelCost>* breakdown =
                            nullptr) const override;

  private:
    hw::Node node_;
    model::ModelConfig model_;
    PerfOptions opts_;
    hw::CollectiveModel coll_;
};

} // namespace shiftpar::parallel
