/**
 * @file
 * Per-kernel-class cost coefficients for the kernel-decomposed cost model.
 *
 * `parallel::KernelCostModel` times every kernel with the same linear form
 *
 *     t = alpha + beta * flops + gamma * bytes
 *
 * under one of four coefficient classes (GEMM, attention, norm,
 * collective). Linearity in the parameters is deliberate: it makes the
 * model directly fittable to external profile CSVs by ordinary least
 * squares (`tools/calibrate`), and a fitted `shiftpar.calibration v1`
 * report plugs straight back in via `load_calibrated_coeffs`.
 *
 * Defaults are derived from the `GpuSpec`/`LinkSpec` presets: beta is the
 * reciprocal achievable FLOP rate, gamma the reciprocal achievable
 * bandwidth, alpha the launch (or per-phase link) latency. Unlike the
 * roofline model's max(compute, memory), the linear form charges compute
 * and memory additively — the two models intentionally disagree so
 * calibration has something to correct.
 */

#pragma once

#include <string>

#include "hw/gpu.h"
#include "hw/interconnect.h"

namespace shiftpar::hw {

/** One class's linear cost coefficients (seconds, seconds/FLOP, s/byte). */
struct KernelCoeff
{
    double alpha = 0.0;  ///< fixed launch / per-phase latency, seconds
    double beta = 0.0;   ///< seconds per FLOP
    double gamma = 0.0;  ///< seconds per byte of HBM (or wire) traffic

    /** @return alpha + beta*flops + gamma*bytes. */
    double seconds(double flops, double bytes) const
    {
        return alpha + beta * flops + gamma * bytes;
    }
};

/** The full per-kernel-class coefficient table. */
struct KernelCoeffs
{
    /** Hardware the coefficients describe (preset or calibration label). */
    std::string hardware;

    KernelCoeff gemm;        ///< QKV/O/MLP/LM-head GEMMs
    KernelCoeff attention;   ///< attention prefill/decode kernels
    KernelCoeff norm;        ///< norms + residual elementwise traffic
    KernelCoeff collective;  ///< alpha per phase, gamma per wire byte
};

/** Derive a default table from device + link specs. */
KernelCoeffs derive_kernel_coeffs(const GpuSpec& gpu, const LinkSpec& link);

/**
 * Named hardware preset ("h200", "h100", "b200", "a100"), each over the
 * NVSwitch fabric; fatal() on an unknown name.
 */
KernelCoeffs kernel_coeffs_preset(const std::string& name);

/**
 * Load a coefficient table from a `shiftpar.calibration` v1 fit report
 * (the JSON `tools/calibrate` emits). fatal() on missing file, schema
 * mismatch, absent kernel classes, or a missing, mistyped or non-finite
 * field; each error names the file and the key.
 */
KernelCoeffs load_calibrated_coeffs(const std::string& path);

} // namespace shiftpar::hw
