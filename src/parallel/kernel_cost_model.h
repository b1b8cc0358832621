/**
 * @file
 * Kernel-decomposed step-cost model.
 *
 * Where the roofline `PerfModel` charges one fused region per component,
 * this model walks the per-layer kernel sequence explicitly — input/post
 * norms, QKV GEMM, attention (prefill and decode separately), O GEMM, MLP
 * GEMMs, the TP all-reduces / SP all-to-alls / EP all-to-alls, the LM head,
 * and the final SP all-gather — and prices each kernel with the linear
 * form `alpha + beta*flops + gamma*bytes` under its `hw::KernelCoeffs`
 * class. Collectives are priced `phases*alpha + wire_volume*gamma` with
 * `hw::CollectiveModel`'s fabric phase counts and wire volumes.
 *
 * It prices the same `StepShape` as the roofline model (`shape_step`:
 * SP padding, SwiftKV and speculative-decode scaling, KV replication,
 * slicing overhead, collective payloads), so only the per-kernel pricing
 * differs; the Fig. 15 component-removal knobs scale its rows the same
 * way. The per-kernel breakdown it reports sums to the returned step
 * total and carries the (flops, bytes) features each cost came from,
 * which is what `tools/calibrate` fits against.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "hw/kernel_coeffs.h"
#include "hw/topology.h"
#include "model/cost_model.h"
#include "model/model_config.h"
#include "parallel/config.h"
#include "parallel/perf_model.h"

namespace shiftpar::parallel {

/** The kernel-decomposed `model::CostModel` implementation. */
class KernelCostModel : public model::CostModel
{
  public:
    /**
     * @param node Device + fabric the engine group runs on.
     * @param m The model being served.
     * @param coeffs Per-kernel-class coefficients (preset or calibrated).
     * @param opts Same engine-overhead/ablation knobs as the roofline
     *        model.
     */
    KernelCostModel(hw::Node node, model::ModelConfig m,
                    hw::KernelCoeffs coeffs, PerfOptions opts = {});

    const char* name() const override { return "kernel"; }

    StepTiming evaluate(const BatchWork& work, const ParallelConfig& cfg,
                        bool sliced_weights = false,
                        std::vector<KernelCost>* breakdown =
                            nullptr) const override;

    const PerfOptions& options() const { return opts_; }

  private:
    hw::Node node_;
    model::ModelConfig model_;
    hw::KernelCoeffs coeffs_;
    PerfOptions opts_;
};

} // namespace shiftpar::parallel
