/**
 * @file
 * The pluggable step-cost interface.
 *
 * Every latency the simulator reports flows through one evaluation: "how
 * long does one engine iteration take under this (SP, TP) configuration?".
 * `CostModel` lifts that question behind an interface so implementations at
 * different fidelity levels are interchangeable:
 *
 *  - `parallel::PerfModel` — the default roofline aggregate (Algorithm 1
 *    shapes, max(compute, memory) per fused region). Fast, and the model
 *    the paper-reproduction figures are pinned against.
 *  - `parallel::KernelCostModel` — a kernel-decomposed model (attention
 *    prefill/decode, QKV/O/MLP GEMMs, norms, collectives) whose per-kernel
 *    coefficients (`hw::KernelCoeffs`) can be fit to external profiles by
 *    `tools/calibrate`.
 *
 * Both price the same step shape (`parallel::shape_step`: SP padding,
 * feature scaling, KV replication, collective payloads); they differ only
 * in how that shape is turned into seconds.
 *
 * The batch/timing vocabulary (`SeqChunk`, `BatchWork`, `StepTiming`) lives
 * here — it describes *work* and *cost*, not a parallelism strategy — and is
 * re-exported under `shiftpar::parallel` for source compatibility with the
 * pre-interface code.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace shiftpar::parallel {
struct ParallelConfig;
} // namespace shiftpar::parallel

namespace shiftpar::model {

/** One request's contribution to a step: new tokens after cached context. */
struct SeqChunk
{
    /** Tokens processed this step (prefill chunk size, or 1 for decode). */
    std::int64_t new_tokens = 0;

    /** Tokens already in the KV cache for this sequence. */
    std::int64_t past = 0;

    /** True for prefill chunks (SwiftKV applies only to these). */
    bool is_prefill = false;
};

/** The work one engine iteration performs. */
struct BatchWork
{
    std::vector<SeqChunk> chunks;

    /** @return sum of new tokens across chunks (the Alg. 2 batch size). */
    std::int64_t total_new_tokens() const;

    /** @return number of sequences in the batch. */
    std::int64_t num_seqs() const
    {
        return static_cast<std::int64_t>(chunks.size());
    }

    /** Convenience: a pure-prefill batch of one request. */
    static BatchWork prefill(std::int64_t prompt_tokens);

    /** Convenience: a decode batch of `batch` sequences at `context` each. */
    static BatchWork decode(std::int64_t batch, std::int64_t context);
};

/** Step time decomposed into the Figure 15 cost components (seconds). */
struct StepTiming
{
    double gemm = 0.0;       ///< dense/expert GEMM compute + weight reads
    double attention = 0.0;  ///< attention kernels + KV cache traffic
    double comm = 0.0;       ///< collective communication
    double overhead = 0.0;   ///< engine (scheduler/launch) overhead

    double total() const { return gemm + attention + comm + overhead; }

    StepTiming& operator+=(const StepTiming& o);
};

/**
 * One kernel's contribution to a step (per GPU), as reported by cost models
 * that can decompose their estimate. `kernel` is the launch site (e.g.
 * "qkv_gemm", "attn_decode", "tp_allreduce"); `klass` is the coefficient
 * class it is costed under ("gemm", "attention", "norm", "collective",
 * "overhead"). `count`/`flops`/`bytes` are the features the cost was
 * derived from — `count` is the number of launches (or collective phases)
 * the row aggregates, `flops`/`bytes` are totals across them (wire volume
 * for collectives) — so a breakdown doubles as a calibration sample:
 * `tools/calibrate` fits class coefficients to (count, flops, bytes,
 * seconds) rows of exactly this shape, `t = alpha*count + beta*flops +
 * gamma*bytes`.
 */
struct KernelCost
{
    std::string kernel;
    std::string klass;
    double count = 1.0;
    double flops = 0.0;
    double bytes = 0.0;
    double seconds = 0.0;
};

/** Which cost-model implementation a deployment evaluates steps with. */
enum class CostModelKind { kRoofline, kKernel };

/** @return "roofline" / "kernel". */
const char* cost_model_kind_name(CostModelKind kind);

/** Parse a `--cost-model` value; fatal() on anything unrecognized. */
CostModelKind parse_cost_model_kind(const std::string& s);

/**
 * Evaluates step timings for one engine group on one node.
 *
 * Implementations are constructed per (node, model) pair, are stateless
 * across calls, and must be safe to query from the sweep runner's worker
 * threads. The engine owns one instance per replica.
 */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** @return short implementation name for reports ("roofline", ...). */
    virtual const char* name() const = 0;

    /**
     * Time one engine iteration.
     *
     * @param work The batch composition.
     * @param cfg The execution configuration for this step.
     * @param sliced_weights True when this is a shift-mode step executed
     *        via on-the-fly slicing (adds the transpose penalty).
     * @param breakdown When non-null, filled with the per-kernel
     *        decomposition of the returned timing; the kernel seconds sum
     *        to exactly `result.total()`. Implementations without kernel
     *        granularity report their coarse components as pseudo-kernels.
     */
    virtual StepTiming evaluate(
        const BatchWork& work, const parallel::ParallelConfig& cfg,
        bool sliced_weights = false,
        std::vector<KernelCost>* breakdown = nullptr) const = 0;

    /** Shorthand: full (unchunked) prefill of one prompt. */
    double prefill_time(std::int64_t prompt_tokens,
                        const parallel::ParallelConfig& cfg) const;

    /** Shorthand: one decode step of `batch` seqs at `context` tokens. */
    double decode_step_time(std::int64_t batch, std::int64_t context,
                            const parallel::ParallelConfig& cfg) const;
};

} // namespace shiftpar::model
