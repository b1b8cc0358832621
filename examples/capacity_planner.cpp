/**
 * @file
 * Example: capacity planning with the deployment auto-tuner.
 *
 * Given a model and a description of expected traffic, enumerate every
 * valid deployment of an 8xH200 node (all strategies, all (SP, TP)
 * splits, threshold variants), simulate each against a sample of the
 * traffic, and rank them by a weighted objective — the "which config do I
 * ship?" question every Section-4-style evaluation ultimately answers.
 *
 * Usage:
 *   capacity_planner --model Qwen-32B --rate 3 --prompt 4000 --output 400 \
 *                    --ttft-weight 0.5 --throughput-weight 0.5
 */

#include <cstdio>
#include <string>

#include "core/autotuner.h"
#include "model/presets.h"
#include "util/argparse.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/arrival.h"
#include "workload/synthetic.h"

using namespace shiftpar;

int
main(int argc, char** argv)
{
    ArgParser args("Rank deployments of a model for your traffic");
    args.add_string("model", "Qwen-32B", "model preset name");
    args.add_double("rate", 3.0, "mean arrival rate, req/s");
    args.add_double("duration", 90.0, "sample duration, seconds");
    args.add_double("prompt", 4000.0, "median prompt tokens");
    args.add_double("output", 400.0, "median output tokens");
    args.add_double("completion-weight", 1.0, "objective: mean completion");
    args.add_double("ttft-weight", 0.0, "objective: p99 TTFT");
    args.add_double("throughput-weight", 0.0, "objective: throughput");
    args.add_bool("sweep-threshold", false, "also sweep shift thresholds");
    args.add_int("seed", 7, "workload seed");
    if (!args.parse(argc, argv))
        return 0;
    for (const char* flag : {"rate", "duration"}) {
        if (!(args.get_double(flag) > 0.0))
            fatal(std::string("flag --") + flag + " must be positive");
    }
    for (const char* flag : {"prompt", "output"}) {
        if (!(args.get_double(flag) >= 1.0))
            fatal(std::string("flag --") + flag + " must be at least 1");
    }

    model::ModelConfig model;
    bool found = false;
    for (const auto& m : model::table4_models()) {
        if (m.name == args.get_string("model")) {
            model = m;
            found = true;
        }
    }
    if (!found)
        fatal("unknown model '" + args.get_string("model") + "'");

    Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
    const auto sample = workload::make_requests(
        workload::poisson_arrivals(rng, args.get_double("rate"),
                                   args.get_double("duration")),
        rng,
        workload::lognormal_size(args.get_double("prompt"), 0.7,
                                 args.get_double("output"), 0.5));
    if (sample.empty())
        fatal("flags --rate x --duration sampled no requests; raise either");

    core::TuneObjective objective;
    objective.completion = args.get_double("completion-weight");
    objective.ttft_p99 = args.get_double("ttft-weight");
    objective.throughput = args.get_double("throughput-weight");
    core::TuneOptions options;
    options.sweep_threshold = args.get_bool("sweep-threshold");

    const core::AutoTuner tuner(model, hw::h200_node());
    const auto ranked = tuner.tune(sample, objective, options);

    std::printf("%s, %.1f req/s (~%.0f median prompt / %.0f output), "
                "%zu candidate deployments\n\n",
                model.name.c_str(), args.get_double("rate"),
                args.get_double("prompt"), args.get_double("output"),
                ranked.size());
    Table table({"#", "Deployment", "Score", "Mean completion (s)",
                 "p99 TTFT (s)", "Throughput (tok/s)"});
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const auto& r = ranked[i];
        table.add_row({std::to_string(i + 1), r.name,
                       Table::fmt(r.score, 3),
                       Table::fmt(r.mean_completion, 2),
                       Table::fmt(r.ttft_p99, 2),
                       Table::fmt_count(
                           static_cast<long long>(r.throughput))});
    }
    table.print();
    std::printf("\nbest: %s — %s\n", ranked.front().name.c_str(),
                ranked.front().resolved.describe().c_str());
    return 0;
}
