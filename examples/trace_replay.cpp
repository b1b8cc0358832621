/**
 * @file
 * Example: replay a request trace file against any deployment — the
 * library equivalent of the paper's artifact workflow (Appendix A: replay
 * the cleaned Azure/Mooncake traces and compare parallelisms).
 *
 * Usage:
 *   trace_replay --trace my.csv --model Llama-70B --strategy shift
 *   trace_replay --synthetic azure --strategy tp      # built-in generator
 *   trace_replay --synthetic mooncake --save out.csv  # export a trace
 *
 * Trace format: CSV with header `arrival_s,prompt_tokens,output_tokens`.
 */

#include <cstdio>

#include "core/deployment.h"
#include "core/report.h"
#include "model/presets.h"
#include "util/argparse.h"
#include "util/logging.h"
#include "workload/azure_trace.h"
#include "workload/characterize.h"
#include "workload/mooncake_trace.h"
#include "workload/trace_io.h"

using namespace shiftpar;

namespace {

model::ModelConfig
model_by_name(const std::string& name)
{
    for (const auto& m : model::table4_models())
        if (m.name == name)
            return m;
    fatal("unknown model '" + name +
          "' (expected one of: Llama-70B, Qwen-32B, Llama-17B-16E, "
          "Qwen-30B-A3B)");
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("Replay a request trace against a simulated deployment");
    args.add_string("trace", "", "trace CSV to replay (see header docs)");
    args.add_string("synthetic", "azure",
                    "built-in generator when --trace is empty: "
                    "azure | mooncake");
    args.add_string("save", "", "write the workload to this CSV and exit");
    args.add_string("model", "Llama-70B", "model preset name");
    args.add_string("strategy", "shift", "dp | tp | sp | shift");
    args.add_int("seed", 2026, "generator seed");
    args.add_double("duration", 300.0, "synthetic trace duration, seconds");
    if (!args.parse(argc, argv))
        return 0;

    // ---- Obtain the workload ---------------------------------------------
    std::vector<engine::RequestSpec> reqs;
    if (!args.get_string("trace").empty()) {
        reqs = workload::load_trace(args.get_string("trace"));
    } else {
        if (!(args.get_double("duration") > 0.0))
            fatal("flag --duration must be positive");
        Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
        if (args.get_string("synthetic") == "azure") {
            workload::AzureTraceOptions opts;
            opts.duration = args.get_double("duration");
            reqs = workload::azure_code_trace(rng, opts);
        } else if (args.get_string("synthetic") == "mooncake") {
            workload::MooncakeTraceOptions opts;
            opts.duration = args.get_double("duration");
            reqs = workload::mooncake_conversation_trace(rng, opts);
        } else {
            fatal("unknown --synthetic generator '" +
                  args.get_string("synthetic") + "'");
        }
    }
    if (!args.get_string("save").empty()) {
        workload::save_trace(args.get_string("save"), reqs);
        std::printf("wrote %zu requests to %s\n", reqs.size(),
                    args.get_string("save").c_str());
        return 0;
    }

    // ---- Replay ------------------------------------------------------------
    core::Deployment d;
    d.model = model_by_name(args.get_string("model"));
    d.strategy = parallel::parse_strategy(args.get_string("strategy"));
    const auto resolved = core::resolve(d);

    std::printf("workload: %s",
                workload::describe(workload::characterize(reqs)).c_str());
    const auto met = core::run_deployment(d, reqs);

    core::ReportOptions ropts;
    ropts.timeline = true;
    ropts.slo = engine::SloSpec{2.0, 0.05};
    std::printf("%s", core::format_report(resolved, met, ropts).c_str());
    return 0;
}
