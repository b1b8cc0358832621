/**
 * @file
 * Deployment builder — the library's top-level public API.
 *
 * A `Deployment` names a model, a node, a parallelization strategy, and
 * optional production features (SwiftKV, speculative decoding). `resolve`
 * turns it into a concrete plan — the (SP, TP) base configuration, replica
 * count, shift threshold, and memory plan — applying the paper's
 * auto-configuration rules:
 *
 *  - TP only as deep as needed for the model (plus shift weights, Eq. 1)
 *    to fit each GPU with a healthy KV pool, the rest of the node to SP
 *    (Section 3.2.2's "avoid partitioning with TP as much as each
 *    partition fits").
 *  - DP replicas are the smallest TP groups that fit the model.
 *  - The shift threshold defaults to the measured step-time crossover.
 *
 * `build` instantiates the engines and router; `run_deployment` replays a
 * workload end to end.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spec_decode.h"
#include "core/swiftkv.h"
#include "engine/router.h"
#include "hw/presets.h"
#include "model/model_config.h"
#include "obs/trace.h"
#include "parallel/cost_model_factory.h"
#include "parallel/strategy.h"

namespace shiftpar::core {

/** A complete serving deployment description. */
struct Deployment
{
    model::ModelConfig model;
    hw::Node node = hw::h200_node();
    parallel::Strategy strategy = parallel::Strategy::kShift;

    /** Manual (SP, TP) override; 0 = auto-configure. */
    int sp = 0;
    int tp = 0;

    /**
     * Expert-parallel degree for MoE models (Section 4.6 extension;
     * 1 = disabled). Composes with any strategy, including Shift.
     */
    int ep = 1;

    /** Shift threshold in batched tokens; -1 = auto-tune (Alg. 2). */
    std::int64_t shift_threshold = -1;

    parallel::WeightStrategy weights =
        parallel::WeightStrategy::kSeparateModels;
    engine::SchedulerOptions sched;
    parallel::PerfOptions perf;
    parallel::MemoryOptions mem;

    /**
     * Step-cost model selection (`--cost-model` / `--kernel-coeffs` in the
     * bench harness). The default roofline spec reproduces the
     * pre-interface engine bit-identically; the kernel spec prices each
     * step from the per-kernel decomposition instead.
     */
    parallel::CostModelSpec cost;

    engine::RoutingPolicy routing = engine::RoutingPolicy::kLeastTokens;

    /** KV block size, tokens. */
    int block_size = 16;

    /** Metrics throughput-bin width, seconds. */
    double throughput_bin = 1.0;

    /** Minimum KV pool as a fraction of HBM for auto TP selection. */
    double min_kv_fraction = 0.25;

    /** Optional production features (Section 4.5). */
    std::optional<SwiftKv> swiftkv;
    std::optional<SpeculativeDecoder> spec_decode;

    /**
     * Fault schedule replayed against the built router's engines during
     * `run_workload` (robustness experiments). Empty = no fault machinery
     * runs at all; results are bit-identical to a build without it.
     */
    fault::FaultSchedule faults;

    /** Retry/backoff and load-shedding knobs used when `faults` is set. */
    engine::ResilienceOptions resilience;

    /**
     * Request-lifecycle robustness knobs (hedged retries, circuit
     * breakers). Default-constructed = every feature off; the lifecycle
     * machinery stays cold and results are bit-identical to a build
     * without it.
     */
    engine::OverloadOptions overload;

    /**
     * Client cancellation stream replayed during `run_workload`
     * (`workload::cancel_stream` derives one deterministically). Indices
     * address positions in the arrival-sorted workload.
     */
    std::vector<engine::CancelEvent> cancellations;

    /**
     * Observability sink (borrowed, may be null). When set, `build`
     * registers every engine replica on the bus and all layers publish
     * lifecycle/step/gauge events to it. Null disables tracing;
     * simulation results are bit-identical either way.
     */
    obs::TraceSink* trace = nullptr;

    /**
     * Cluster self-profiling accumulator (borrowed, may be null). When
     * set, the replay cluster attributes host wall time per component
     * kind and folds heap/queue stats into it (`--profile` in the bench
     * harness). Like `trace`, it only observes: simulation results are
     * bit-identical either way.
     */
    sim::ClusterProfile* profile = nullptr;
};

/** The concrete plan a deployment resolves to. */
struct ResolvedDeployment
{
    /** Base (SP, TP) of each engine group. */
    parallel::ParallelConfig base;

    /** Engine replica count (1 except for DP). */
    int replicas = 1;

    /** Shift threshold (0 when the strategy never shifts). */
    std::int64_t shift_threshold = 0;

    /** Whether engines reserve the shift model's weights (Eq. 1). */
    bool with_shift_model = false;

    /** Per-GPU memory plan of each engine. */
    parallel::MemoryPlan memory;

    /** Scheduler/perf options with features applied. */
    engine::SchedulerOptions sched;
    parallel::PerfOptions perf;

    /** Which cost-model implementation steps are priced with. */
    model::CostModelKind cost_kind = model::CostModelKind::kRoofline;

    /** One-line human-readable summary. */
    std::string describe() const;
};

/** Resolve auto-configuration; fatal() when nothing fits. */
ResolvedDeployment resolve(const Deployment& d);

/** Build the engines + router for a deployment. */
std::unique_ptr<engine::Router> build(const Deployment& d);

/**
 * As above with a pre-computed plan, so callers that already resolved the
 * deployment (for reporting, labels, ...) do not pay for — or depend on
 * the determinism of — a second resolve. `r` must come from `resolve(d)`.
 */
std::unique_ptr<engine::Router> build(const Deployment& d,
                                      const ResolvedDeployment& r);

/** Convenience: build, replay `workload`, and return merged metrics. */
engine::Metrics run_deployment(const Deployment& d,
                               const std::vector<engine::RequestSpec>& workload);

} // namespace shiftpar::core
