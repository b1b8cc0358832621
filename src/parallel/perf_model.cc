#include "parallel/perf_model.h"

#include "util/logging.h"
#include "util/units.h"

namespace shiftpar::parallel {

PerfModel::PerfModel(hw::Node node, model::ModelConfig m, PerfOptions opts)
    : node_(std::move(node)), model_(std::move(m)), opts_(opts),
      coll_(node_.link)
{
    model_.validate();
}

StepShape
shape_step(const hw::Node& node, const model::ModelConfig& m,
           const PerfOptions& opts, const BatchWork& work,
           const ParallelConfig& cfg, bool sliced_weights)
{
    validate_config_or_die(m, cfg);
    SP_ASSERT(cfg.world() <= node.num_gpus,
              "configuration exceeds node size");

    StepShape s;
    s.group = cfg.world();
    s.kv_rep = kv_replication(m, cfg);
    if (opts.engine_overhead) {
        s.overhead = opts.step_overhead_base +
                     opts.step_overhead_per_rank * (s.group - 1);
    }
    const std::int64_t n_raw = work.total_new_tokens();
    if (n_raw == 0)
        return s;

    // Section 3.2.1 load balancing: pad the batch to a multiple of SP so
    // every rank receives the same number of sequence rows.
    s.tokens = cfg.sp > 1 ? round_up(n_raw, cfg.sp) : n_raw;
    const double n = static_cast<double>(s.tokens);
    s.rows = n / cfg.sp;

    // Effective compute tokens after feature scaling: SwiftKV shrinks
    // prefill compute, speculative verification inflates decode compute.
    double scaled = 0.0;
    for (const auto& c : work.chunks) {
        scaled += static_cast<double>(c.new_tokens) *
                  (c.is_prefill ? opts.swiftkv_prefill_factor
                                : opts.decode_compute_inflation);
    }
    s.compute_tokens = n * scaled / static_cast<double>(n_raw);

    // Expert weights are additionally spread over the EP dimension
    // (Section 4.6 extension): each rank streams only its local experts.
    s.expert_read =
        model::layer_expert_read_bytes(m, n) / (cfg.tp * cfg.ep);
    s.sampled = static_cast<double>(work.num_seqs());
    // On-the-fly slicing transposes each shard before use (FP8 Hopper
    // limitation, Section 3.3.2) — modeled as extra weight traffic.
    s.slice = sliced_weights ? 1.0 + opts.slicing_overhead_frac : 1.0;

    // ---- Collectives, per layer (Algorithm 1) ----------------------------
    const double act_b = opts.act_bytes;
    const auto add = [&s](const char* kernel, bool all_reduce, int ranks,
                          double calls, double bytes) {
        s.collectives[s.num_collectives++] = {kernel, all_reduce, ranks,
                                              calls, bytes};
    };
    if (cfg.tp > 1) {
        // Lines 8 and 11: two all-reduces of embed[n/SP, d].
        add("tp_allreduce", true, cfg.tp, 2.0,
            s.rows * m.hidden_size * act_b);
    }
    if (cfg.sp > 1) {
        // Line 4: all-to-all of the fused QKV heads. GQA replaces 3h with
        // h + 2*h_kv (Section 3.2.1); replication inflates the KV part.
        const double qkv_cols =
            (m.q_heads + 2.0 * m.kv_heads * s.kv_rep) * m.head_dim / cfg.tp;
        add("sp_a2a_qkv", false, cfg.sp, 1.0, s.rows * qkv_cols * act_b);
        // Line 6: all-to-all of the attention output heads.
        const double o_cols =
            static_cast<double>(m.q_heads) * m.head_dim / cfg.tp;
        add("sp_a2a_o", false, cfg.sp, 1.0, s.rows * o_cols * act_b);
        // Line 13: the final all-gather of the sequence.
        s.gather_bytes = n * m.hidden_size * act_b;
    }
    if (m.is_moe() && cfg.ep > 1) {
        // Expert parallelism routes each token's hidden state to its
        // experts and back: dispatch + combine all-to-alls over the EP
        // group, `active_experts` copies per token.
        add("ep_a2a", false, cfg.ep, 2.0,
            s.rows * m.active_experts * m.hidden_size * act_b / cfg.tp);
    }
    return s;
}

StepTiming
PerfModel::evaluate(const BatchWork& work, const ParallelConfig& cfg,
                    bool sliced_weights,
                    std::vector<KernelCost>* breakdown) const
{
    const StepShape s =
        shape_step(node_, model_, opts_, work, cfg, sliced_weights);
    const model::ModelConfig& m = model_;
    const double wbytes = model::dtype_bytes(m.weight_dtype);

    StepTiming t;
    t.overhead = s.overhead;

    // Report the four aggregates as pseudo-kernels; the roofline model has
    // no finer granularity. Deferred to one exit path so every early
    // return stays covered.
    const auto fill_breakdown = [&](const StepTiming& timing) {
        if (breakdown == nullptr)
            return;
        breakdown->push_back({"gemm", "gemm", 1.0, 0.0, 0.0, timing.gemm});
        breakdown->push_back(
            {"attention", "attention", 1.0, 0.0, 0.0, timing.attention});
        breakdown->push_back(
            {"comm", "collective", 1.0, 0.0, 0.0, timing.comm});
        breakdown->push_back(
            {"overhead", "overhead", 1.0, 0.0, 0.0, timing.overhead});
    };
    if (s.tokens == 0) {
        fill_breakdown(t);
        return t;
    }
    const double n = static_cast<double>(s.tokens);

    // ---- GEMM compute + weight streaming, per layer per GPU -------------
    // Each GPU computes rows/SP of the sequence against 1/TP of the weight
    // columns: FLOPs / (SP*TP). Weights are read once per step at 1/TP
    // (SP replicates weights — this term is what makes SP decode slow).
    const double gemm_flops_pg =
        model::layer_gemm_flops(m, s.compute_tokens) / s.group;
    const double weight_read_pg =
        (model::layer_dense_weight_bytes(m) / cfg.tp + s.expert_read) *
        s.slice;
    const double act_bytes_pg =
        model::layer_activation_bytes(m, n) / s.group;
    const double gemm_layer = node_.gpu.kernel_time(
        gemm_flops_pg, weight_read_pg + act_bytes_pg,
        node_.gpu.effective_gemm_flops(wbytes));

    // ---- Attention, per layer per GPU -----------------------------------
    // Heads are sharded across the whole group (identically under base and
    // shift configs — the KV-cache invariance); replicated KV heads
    // multiply cache traffic.
    double attn_flops = 0.0;
    double kv_traffic = 0.0;
    for (const auto& c : work.chunks) {
        const ChunkAttention a = chunk_attention(m, opts_, c);
        attn_flops += a.flops;
        kv_traffic += a.kv_bytes;
    }
    const double attn_layer = node_.gpu.kernel_time(
        attn_flops / s.group, kv_traffic * s.kv_rep / s.group,
        node_.gpu.effective_attn_flops(model::dtype_bytes(m.kv_dtype)));

    // ---- Communication, per layer ----------------------------------------
    double comm_layer = 0.0;
    for (int i = 0; i < s.num_collectives; ++i) {
        const LayerCollective& c = s.collectives[i];
        comm_layer += c.calls * (c.all_reduce
                                     ? coll_.all_reduce(c.bytes, c.ranks)
                                     : coll_.all_to_all(c.bytes, c.ranks));
    }

    t.gemm = m.num_layers * gemm_layer;
    t.attention = m.num_layers * attn_layer * opts_.attention_scale;
    t.comm = m.num_layers * comm_layer * opts_.comm_scale;

    // ---- LM head (sampled positions only) --------------------------------
    const double head_flops = model::lm_head_flops(m, s.sampled) / s.group;
    const double head_bytes =
        static_cast<double>(m.vocab_size) * m.hidden_size * wbytes / s.group;
    t.gemm += node_.gpu.kernel_time(head_flops, head_bytes,
                                    node_.gpu.effective_gemm_flops(wbytes));

    // ---- Final sequence all-gather (Algorithm 1 line 13) -----------------
    if (cfg.sp > 1)
        t.comm += opts_.comm_scale * coll_.all_gather(s.gather_bytes, cfg.sp);
    fill_breakdown(t);
    return t;
}

} // namespace shiftpar::parallel
