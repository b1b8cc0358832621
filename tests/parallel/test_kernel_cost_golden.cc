/**
 * @file
 * Exact pin of the kernel-decomposed cost model.
 *
 * `tests/data/kernel_cost_model.golden` holds `KernelCostModel::evaluate`
 * timings and per-kernel breakdown rows over a randomized sweep of fabric
 * (switch and ring), model (dense, MoE), (SP, TP, EP), batch composition,
 * sliced weights and `PerfOptions` (SwiftKV, speculative decoding,
 * slicing overhead, engine overhead and the Fig. 15 removal knobs). It
 * was written by the kernel model as it stood before its batch semantics
 * moved into `shape_step`, and must never be regenerated from the code
 * it checks.
 *
 * Golden format (text; doubles as C99 hex-floats, so they are exact):
 *
 *     cases <n>
 *     case <fabric> <model> <options> <sp> <tp> <ep> <sliced> <rows>
 *     w <new_tokens>:<past>:<p|d> ...      (the batch, in chunk order)
 *     t <gemm> <attention> <comm> <overhead>
 *     k <kernel> <klass> <count> <flops> <bytes> <seconds>   (x rows)
 *
 * Lines starting with '#' are comments.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hw/kernel_coeffs.h"
#include "hw/presets.h"
#include "model/presets.h"
#include "parallel/kernel_cost_model.h"

namespace shiftpar::parallel {
namespace {

/** The option sets the golden names. */
PerfOptions
options_named(const std::string& name)
{
    PerfOptions o;
    if (name == "features") {
        o.swiftkv_prefill_factor = 0.6;
        o.decode_compute_inflation = 1.5;
        o.slicing_overhead_frac = 0.45;
        o.step_overhead_base = 1.5e-3;
        o.step_overhead_per_rank = 0.4e-3;
        o.act_bytes = 1.0;
    } else if (name == "no_comm") {
        o.comm_scale = 0.0;
    } else if (name == "no_attention") {
        o.attention_scale = 0.0;
    } else if (name == "no_overhead") {
        o.engine_overhead = false;
    } else if (name == "scaled") {
        o.comm_scale = 0.5;
        o.attention_scale = 0.7;
        o.swiftkv_prefill_factor = 0.35;
        o.decode_compute_inflation = 2.25;
    } else {
        EXPECT_EQ(name, "default") << "unknown golden option set";
    }
    return o;
}

model::ModelConfig
model_named(const std::string& name)
{
    for (const model::ModelConfig& m : model::table4_models())
        if (m.name == name)
            return m;
    ADD_FAILURE() << "unknown golden model '" << name << "'";
    return model::llama_70b();
}

double
hex_double(const std::string& token)
{
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    EXPECT_TRUE(!token.empty() && *end == '\0')
        << "malformed golden number '" << token << "'";
    return v;
}

/** Next non-comment line; the tag (first word) must equal `tag`. */
std::istringstream
next_record(std::istream& in, const char* tag)
{
    std::string line;
    while (std::getline(in, line) && !line.empty() && line[0] == '#') {
    }
    std::istringstream ls(line);
    std::string got;
    ls >> got;
    EXPECT_EQ(got, tag) << "golden record";
    return ls;
}

BatchWork
parse_work(std::istringstream& ls)
{
    BatchWork work;
    std::string chunk;
    while (ls >> chunk) {
        SeqChunk c;
        char kind = '?';
        long long nt = 0, past = 0;
        EXPECT_EQ(std::sscanf(chunk.c_str(), "%lld:%lld:%c", &nt, &past,
                              &kind),
                  3)
            << "malformed golden chunk '" << chunk << "'";
        c.new_tokens = nt;
        c.past = past;
        c.is_prefill = kind == 'p';
        work.chunks.push_back(c);
    }
    return work;
}

TEST(KernelCostGolden, EvaluateMatchesFrozenTimingsAndBreakdownsExactly)
{
    std::ifstream in(std::string(KERNEL_GOLDEN_DATA_DIR) +
                     "/kernel_cost_model.golden");
    ASSERT_TRUE(in.good()) << "missing kernel_cost_model.golden";
    std::size_t cases = 0;
    next_record(in, "cases") >> cases;
    ASSERT_GT(cases, 0u);

    for (std::size_t i = 0; i < cases; ++i) {
        std::string fabric, model_name, opt_name;
        ParallelConfig cfg;
        int sliced = 0;
        std::size_t nrows = 0;
        next_record(in, "case") >> fabric >> model_name >> opt_name >>
            cfg.sp >> cfg.tp >> cfg.ep >> sliced >> nrows;
        std::istringstream wl = next_record(in, "w");
        const BatchWork work = parse_work(wl);
        const std::string where = "case " + std::to_string(i) + " " +
                                  fabric + " " + model_name + " " +
                                  opt_name + " " + cfg.to_string();

        hw::Node node = hw::h200_node();
        if (fabric == "pcie")
            node.link = hw::pcie_gen5();
        else
            ASSERT_EQ(fabric, "nvswitch") << where;
        const KernelCostModel kcm(
            node, model_named(model_name),
            hw::derive_kernel_coeffs(node.gpu, node.link),
            options_named(opt_name));
        std::vector<KernelCost> rows;
        const StepTiming t = kcm.evaluate(work, cfg, sliced == 1, &rows);

        std::string g, a, c, o;
        next_record(in, "t") >> g >> a >> c >> o;
        EXPECT_EQ(t.gemm, hex_double(g)) << where;
        EXPECT_EQ(t.attention, hex_double(a)) << where;
        EXPECT_EQ(t.comm, hex_double(c)) << where;
        EXPECT_EQ(t.overhead, hex_double(o)) << where;

        ASSERT_EQ(rows.size(), nrows) << where;
        for (const KernelCost& row : rows) {
            std::string kernel, klass, count, flops, bytes, seconds;
            next_record(in, "k") >> kernel >> klass >> count >> flops >>
                bytes >> seconds;
            const std::string at = where + " row " + kernel;
            EXPECT_EQ(row.kernel, kernel) << at;
            EXPECT_EQ(row.klass, klass) << at;
            EXPECT_EQ(row.count, hex_double(count)) << at;
            EXPECT_EQ(row.flops, hex_double(flops)) << at;
            EXPECT_EQ(row.bytes, hex_double(bytes)) << at;
            EXPECT_EQ(row.seconds, hex_double(seconds)) << at;
        }
    }
}

} // namespace
} // namespace shiftpar::parallel
