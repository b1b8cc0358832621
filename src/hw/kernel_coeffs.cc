#include "hw/kernel_coeffs.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "hw/presets.h"
#include "util/json_parse.h"
#include "util/logging.h"

namespace shiftpar::hw {

KernelCoeffs
derive_kernel_coeffs(const GpuSpec& gpu, const LinkSpec& link)
{
    SP_ASSERT(gpu.hbm_bw > 0.0 && link.bw > 0.0,
              "kernel coefficients need usable device and link bandwidth");
    KernelCoeffs c;
    c.hardware = gpu.name;
    // FP8 GEMMs dominate serving; attention runs at the FP16 rate on the
    // (typically FP16) KV cache. Norms are bandwidth-bound: no FLOP term.
    c.gemm.alpha = gpu.kernel_overhead;
    c.gemm.beta = 1.0 / gpu.effective_gemm_flops(1.0);
    c.gemm.gamma = 1.0 / gpu.effective_bw();
    c.attention.alpha = gpu.kernel_overhead;
    c.attention.beta = 1.0 / gpu.effective_attn_flops(2.0);
    c.attention.gamma = 1.0 / gpu.effective_bw();
    c.norm.alpha = gpu.kernel_overhead;
    c.norm.beta = 0.0;
    c.norm.gamma = 1.0 / gpu.effective_bw();
    c.collective.alpha = link.latency;
    c.collective.beta = 0.0;
    c.collective.gamma = 1.0 / link.effective_bw();
    return c;
}

KernelCoeffs
kernel_coeffs_preset(const std::string& name)
{
    if (name == "h200")
        return derive_kernel_coeffs(h200(), nvswitch());
    if (name == "h100")
        return derive_kernel_coeffs(h100(), nvswitch());
    if (name == "b200")
        return derive_kernel_coeffs(b200(), nvswitch());
    if (name == "a100")
        return derive_kernel_coeffs(a100(), nvswitch());
    fatal("unknown kernel-coefficient preset '" + name +
          "' (expected h200|h100|b200|a100)");
}

KernelCoeffs
load_calibrated_coeffs(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open calibration report '" + path + "'");
    std::stringstream buf;
    buf << in.rdbuf();

    util::JsonValue doc;
    try {
        doc = util::parse_json(buf.str());
    } catch (const std::exception& e) {
        fatal("calibration report '" + path + "' is not valid JSON: " +
              e.what());
    }
    // Every malformed field is fatal with the file and the key's path
    // (`where` is the path prefix, e.g. "kernels[2].").
    const auto fail = [&path](const std::string& what) {
        fatal("calibration report '" + path + "': " + what);
    };
    const auto field = [&](const util::JsonValue& obj,
                           const std::string& where,
                           const std::string& key) -> const util::JsonValue& {
        if (!obj.has(key))
            fail("missing key '" + where + key + "'");
        return obj.at(key);
    };
    const auto number = [&](const util::JsonValue& obj,
                            const std::string& where, const std::string& key) {
        const util::JsonValue& v = field(obj, where, key);
        if (!v.is_number() || !std::isfinite(v.num()))
            fail("key '" + where + key + "' must be a finite number");
        return v.num();
    };
    const auto text = [&](const util::JsonValue& obj, const std::string& where,
                          const std::string& key) -> const std::string& {
        const util::JsonValue& v = field(obj, where, key);
        if (!v.is_string())
            fail("key '" + where + key + "' must be a string");
        return v.str();
    };

    if (!doc.is_object() || !doc.has("schema") ||
        !doc.at("schema").is_string() ||
        doc.at("schema").str() != "shiftpar.calibration" ||
        number(doc, "", "version") != 1.0) {
        fatal("calibration report '" + path +
              "' is not a shiftpar.calibration v1 document");
    }

    KernelCoeffs c;
    c.hardware = doc.has("hardware") ? text(doc, "", "hardware") : "";
    const util::JsonValue& kernels = field(doc, "", "kernels");
    if (!kernels.is_array())
        fail("key 'kernels' must be an array");
    bool seen_gemm = false, seen_attn = false, seen_norm = false,
         seen_coll = false;
    for (std::size_t i = 0; i < kernels.arr().size(); ++i) {
        const util::JsonValue& fit = kernels.arr()[i];
        const std::string where = "kernels[" + std::to_string(i) + "].";
        KernelCoeff k;
        k.alpha = number(fit, where, "alpha");
        k.beta = number(fit, where, "beta");
        k.gamma = number(fit, where, "gamma");
        const std::string& klass = text(fit, where, "class");
        if (klass == "gemm") {
            c.gemm = k;
            seen_gemm = true;
        } else if (klass == "attention") {
            c.attention = k;
            seen_attn = true;
        } else if (klass == "norm") {
            c.norm = k;
            seen_norm = true;
        } else if (klass == "collective") {
            c.collective = k;
            seen_coll = true;
        }
        // Unknown classes are ignored: additive schema evolution.
    }
    if (!(seen_gemm && seen_attn && seen_norm && seen_coll)) {
        fatal("calibration report '" + path +
              "' is missing kernel classes (need gemm, attention, norm, "
              "collective)");
    }
    return c;
}

} // namespace shiftpar::hw
