#include "parallel/kernel_cost_model.h"

#include <utility>

#include "model/flops.h"

namespace shiftpar::parallel {

KernelCostModel::KernelCostModel(hw::Node node, model::ModelConfig m,
                                 hw::KernelCoeffs coeffs, PerfOptions opts)
    : node_(std::move(node)), model_(std::move(m)),
      coeffs_(std::move(coeffs)), opts_(opts)
{
    model_.validate();
}

StepTiming
KernelCostModel::evaluate(const BatchWork& work, const ParallelConfig& cfg,
                          bool sliced_weights,
                          std::vector<KernelCost>* breakdown) const
{
    const StepShape s =
        shape_step(node_, model_, opts_, work, cfg, sliced_weights);
    const model::ModelConfig& m = model_;
    const int g = s.group;
    const double L = static_cast<double>(m.num_layers);
    const double wbytes = model::dtype_bytes(m.weight_dtype);
    const double act_b = opts_.act_bytes;
    const double rows = s.rows;

    StepTiming t;

    // Price one breakdown row: seconds = scale * (count*alpha + beta*flops
    // + gamma*bytes), appended in a fixed order so breakdowns (and the
    // calibration samples derived from them) are deterministic. `bucket`
    // accumulates the row into one Fig. 15 component, so the breakdown
    // sums to the returned step total by construction.
    const auto add = [&](const char* kernel, const char* klass,
                         const hw::KernelCoeff& k, double count,
                         double flops, double bytes, double scale,
                         double* bucket) {
        const double seconds =
            scale * (count * k.alpha + k.beta * flops + k.gamma * bytes);
        *bucket += seconds;
        if (breakdown != nullptr)
            breakdown->push_back({kernel, klass, count, flops, bytes,
                                  seconds});
    };

    if (opts_.engine_overhead) {
        t.overhead = s.overhead;
        if (breakdown != nullptr)
            breakdown->push_back(
                {"engine_overhead", "overhead", 1.0, 0.0, 0.0, s.overhead});
    }
    if (s.tokens == 0)
        return t;

    // ---- Norms: two bandwidth-bound elementwise kernels per layer -------
    // (input RMSNorm + post-attention RMSNorm), each a read+write pass
    // over this rank's rows of the hidden stream.
    add("norm", "norm", coeffs_.norm, 2.0 * L, 0.0,
        2.0 * L * (2.0 * rows * m.hidden_size * act_b), 1.0, &t.gemm);

    // ---- Projection / MLP GEMMs, per layer per GPU ----------------------
    // Weight shards stream at 1/TP (SP replicates weights); activation IO
    // covers each GEMM's input read and sharded output write.
    const double qkv_out = (m.q_heads + 2.0 * m.kv_heads) *
                           static_cast<double>(m.head_dim);
    const double qkv_w = static_cast<double>(m.hidden_size) * qkv_out *
                         wbytes;
    const double o_w = static_cast<double>(m.q_heads) * m.head_dim *
                       m.hidden_size * wbytes;
    // Dense MLP weights, or the router for MoE (expert streams below).
    const double mlp_w =
        model::layer_dense_weight_bytes(m) - m.attn_params_per_layer() *
                                                 wbytes;

    add("qkv_gemm", "gemm", coeffs_.gemm, L,
        L * model::qkv_flops(m, s.compute_tokens) / g,
        L * (qkv_w / cfg.tp * s.slice + rows * m.hidden_size * act_b +
             rows * qkv_out * act_b / cfg.tp),
        1.0, &t.gemm);
    add("o_gemm", "gemm", coeffs_.gemm, L,
        L * model::o_flops(m, s.compute_tokens) / g,
        L * (o_w / cfg.tp * s.slice +
             rows * m.q_heads * m.head_dim * act_b / cfg.tp +
             rows * m.hidden_size * act_b),
        1.0, &t.gemm);
    add("mlp_gemm", "gemm", coeffs_.gemm, L,
        L * model::mlp_flops(m, s.compute_tokens) / g,
        L * ((mlp_w / cfg.tp + s.expert_read) * s.slice +
             2.0 * rows * m.hidden_size * act_b +
             3.0 * rows * m.intermediate_size * act_b / cfg.tp),
        1.0, &t.gemm);

    // ---- Attention, prefill and decode kernels separately ---------------
    // Head-sharded across the whole group (the KV-cache invariance);
    // replicated KV heads multiply cache traffic. One fused launch per
    // layer for each phase present in the batch.
    double prefill_flops = 0.0, prefill_kv = 0.0;
    double decode_flops = 0.0, decode_kv = 0.0;
    bool any_prefill = false, any_decode = false;
    for (const auto& c : work.chunks) {
        const ChunkAttention a = chunk_attention(m, opts_, c);
        if (c.is_prefill) {
            prefill_flops += a.flops;
            prefill_kv += a.kv_bytes;
            any_prefill = true;
        } else {
            decode_flops += a.flops;
            decode_kv += a.kv_bytes;
            any_decode = true;
        }
    }
    if (any_prefill) {
        add("attn_prefill", "attention", coeffs_.attention, L,
            L * prefill_flops / g, L * prefill_kv * s.kv_rep / g,
            opts_.attention_scale, &t.attention);
    }
    if (any_decode) {
        add("attn_decode", "attention", coeffs_.attention, L,
            L * decode_flops / g, L * decode_kv * s.kv_rep / g,
            opts_.attention_scale, &t.attention);
    }

    // ---- Collectives, per layer (Algorithm 1) ---------------------------
    // Priced phases*alpha + wire_volume*gamma with the fabric's phase
    // counts and Table 2 per-rank wire volumes.
    using Coll = hw::CollectiveModel;
    const hw::FabricKind fabric = node_.link.kind;
    for (int i = 0; i < s.num_collectives; ++i) {
        const LayerCollective& c = s.collectives[i];
        const double phases = c.all_reduce
                                  ? Coll::all_reduce_phases(fabric, c.ranks)
                                  : Coll::exchange_phases(fabric, c.ranks);
        const double volume =
            c.all_reduce ? Coll::all_reduce_volume(c.bytes, c.ranks)
                         : Coll::all_to_all_volume(c.bytes, c.ranks);
        add(c.kernel, "collective", coeffs_.collective, c.calls * L * phases,
            0.0, c.calls * L * volume, opts_.comm_scale, &t.comm);
    }

    // ---- LM head (sampled positions only) -------------------------------
    add("lm_head", "gemm", coeffs_.gemm, 1.0,
        model::lm_head_flops(m, s.sampled) / g,
        static_cast<double>(m.vocab_size) * m.hidden_size * wbytes / g +
            s.sampled * m.hidden_size * act_b,
        1.0, &t.gemm);

    // ---- Final sequence all-gather (Algorithm 1 line 13) ----------------
    if (cfg.sp > 1) {
        add("sp_allgather", "collective", coeffs_.collective,
            Coll::exchange_phases(fabric, cfg.sp), 0.0,
            Coll::all_gather_volume(s.gather_bytes, cfg.sp),
            opts_.comm_scale, &t.comm);
    }
    return t;
}

} // namespace shiftpar::parallel
