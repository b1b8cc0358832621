/**
 * @file
 * Proof that the discrete-event cluster replay is bit-identical to the
 * historical lockstep replay.
 *
 * `Router::run_workload` drives every replica as a `sim::Component` on
 * one event queue. For single-engine and pure-DP deployments (no
 * migration) that must change *nothing* relative to the lockstep loop the
 * simulator started with: advance every replica to each arrival, route
 * and submit it, then drain. That loop no longer exists in the library;
 * its output for the four scenarios below is frozen in
 * `tests/data/sim_equivalence_<scenario>.golden`, and this test requires
 * exact equality of every request record, every step record, and the
 * serialized run report, byte for byte, against those files.
 *
 * Golden format (text; doubles as C99 hex-floats, so they are exact):
 *
 *     requests <n>
 *     r <id> <arrival> <prompt> <output> <ttft> <tpot> <completion>
 *       <wait> <preemptions>                      (one line per record)
 *     steps <n>
 *     s <start> <end> <batched_tokens> <num_seqs> (one line per step)
 *     report <bytes>
 *     <exactly that many bytes of ReportJson output>
 *
 * Lines starting with '#' before the report block are comments. The
 * goldens must never be regenerated from `run_workload` itself — that
 * would turn the check into a tautology.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/test_helpers.h"
#include "engine/router.h"
#include "obs/report_json.h"

namespace shiftpar::engine {
namespace {

using shiftpar::testing::make_engine;
using shiftpar::testing::tiny_model;

/** A deterministic mixed workload: ragged prompts, bursts, stragglers. */
std::vector<RequestSpec>
mixed_workload(int n)
{
    std::vector<RequestSpec> reqs;
    for (int i = 0; i < n; ++i) {
        RequestSpec s;
        s.arrival = 0.05 * i + (i % 7 == 0 ? 0.0 : 0.01 * (i % 3));
        s.prompt_tokens = 300 + 137 * (i % 11);
        s.output_tokens = 8 + 19 * (i % 5);
        reqs.push_back(s);
    }
    // A same-instant burst exercises event tie-breaking.
    for (int i = 0; i < 6; ++i)
        reqs.push_back({1.0, 2048 + 64 * i, 32});
    return reqs;
}

std::vector<std::unique_ptr<Engine>>
build_replicas(int count, int tp)
{
    std::vector<std::unique_ptr<Engine>> engines;
    for (int i = 0; i < count; ++i) {
        EngineConfig cfg;
        cfg.base = {1, tp};
        engines.push_back(make_engine(tiny_model(), cfg));
    }
    return engines;
}

/** The frozen lockstep replay of one scenario. */
struct Golden
{
    std::vector<RequestRecord> requests;
    std::vector<StepRecord> steps;
    std::string report;
};

double
hex_double(const std::string& token)
{
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    EXPECT_TRUE(!token.empty() && *end == '\0')
        << "malformed golden number '" << token << "'";
    return v;
}

/** Next non-comment line of the record section. */
bool
next_line(std::istream& in, std::string* line)
{
    while (std::getline(in, *line)) {
        if (line->empty() || (*line)[0] != '#')
            return true;
    }
    return false;
}

/** Read `<tag> <count>` and return the count. */
std::size_t
read_count(std::istream& in, const char* tag)
{
    std::string line;
    EXPECT_TRUE(next_line(in, &line)) << "golden ends before '" << tag
                                      << "'";
    std::istringstream ls(line);
    std::string got;
    std::size_t n = 0;
    ls >> got >> n;
    EXPECT_EQ(got, tag) << "golden section header";
    return n;
}

Golden
load_golden(const std::string& scenario)
{
    const std::string path = std::string(SIM_EQUIVALENCE_DATA_DIR) +
                             "/sim_equivalence_" + scenario + ".golden";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    Golden g;
    std::string line;

    const std::size_t n_req = read_count(in, "requests");
    for (std::size_t i = 0; i < n_req && next_line(in, &line); ++i) {
        std::istringstream ls(line);
        std::string tag, arrival, ttft, tpot, completion, wait;
        RequestRecord r;
        ls >> tag >> r.id >> arrival >> r.prompt_tokens >> r.output_tokens >>
            ttft >> tpot >> completion >> wait >> r.preemptions;
        EXPECT_EQ(tag, "r") << path << ": request line " << i;
        r.arrival = hex_double(arrival);
        r.ttft = hex_double(ttft);
        r.tpot = hex_double(tpot);
        r.completion = hex_double(completion);
        r.wait = hex_double(wait);
        g.requests.push_back(r);
    }

    const std::size_t n_step = read_count(in, "steps");
    for (std::size_t i = 0; i < n_step && next_line(in, &line); ++i) {
        std::istringstream ls(line);
        std::string tag, start, end;
        StepRecord s;
        ls >> tag >> start >> end >> s.batched_tokens >> s.num_seqs;
        EXPECT_EQ(tag, "s") << path << ": step line " << i;
        s.start = hex_double(start);
        s.end = hex_double(end);
        g.steps.push_back(s);
    }

    const std::size_t n_bytes = read_count(in, "report");
    g.report.resize(n_bytes);
    in.read(g.report.data(), static_cast<std::streamsize>(n_bytes));
    EXPECT_EQ(static_cast<std::size_t>(in.gcount()), n_bytes)
        << path << ": truncated report block";
    return g;
}

void
expect_matches_golden(const Metrics& a, const std::string& scenario)
{
    const Golden b = load_golden(scenario);
    ASSERT_EQ(a.requests().size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests().size(); ++i) {
        const RequestRecord& x = a.requests()[i];
        const RequestRecord& y = b.requests[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.arrival, y.arrival);          // exact, not approximate
        EXPECT_EQ(x.prompt_tokens, y.prompt_tokens);
        EXPECT_EQ(x.output_tokens, y.output_tokens);
        EXPECT_EQ(x.ttft, y.ttft);
        EXPECT_EQ(x.tpot, y.tpot);
        EXPECT_EQ(x.completion, y.completion);
        EXPECT_EQ(x.wait, y.wait);
        EXPECT_EQ(x.preemptions, y.preemptions);
    }
    ASSERT_EQ(a.steps().size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps().size(); ++i) {
        const StepRecord& x = a.steps()[i];
        const StepRecord& y = b.steps[i];
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.end, y.end);
        EXPECT_EQ(x.batched_tokens, y.batched_tokens);
        EXPECT_EQ(x.num_seqs, y.num_seqs);
    }
    // The serialized run report is the external contract: identical bytes.
    obs::ReportJson ra("equivalence");
    ra.add_run("run", a);
    std::ostringstream sa;
    ra.write(sa);
    EXPECT_EQ(sa.str(), b.report);
}

TEST(SimEquivalence, SingleEngineMatchesLockstepBitForBit)
{
    Router router(build_replicas(1, 4));
    const Metrics via_cluster = router.run_workload(mixed_workload(60));
    expect_matches_golden(via_cluster, "single_engine");
    EXPECT_EQ(router.migration_count(), 0);
}

TEST(SimEquivalence, EightReplicaDpMatchesLockstepBitForBit)
{
    Router router(build_replicas(8, 1), RoutingPolicy::kLeastTokens);
    const Metrics via_cluster = router.run_workload(mixed_workload(120));
    expect_matches_golden(via_cluster, "dp8_least_tokens");
}

TEST(SimEquivalence, RoundRobinDpMatchesLockstepBitForBit)
{
    // Round-robin routing is sensitive to submission *order* alone, so it
    // doubles as a check that cluster arrival events keep posting order.
    Router router(build_replicas(4, 2), RoutingPolicy::kRoundRobin);
    const Metrics via_cluster = router.run_workload(mixed_workload(80));
    expect_matches_golden(via_cluster, "dp4_round_robin");
}

TEST(SimEquivalence, MigrationOffByDefaultEvenWhenImbalanced)
{
    // A pathological workload (everything lands on one replica's watch)
    // must still replay identically when migration is not requested.
    std::vector<RequestSpec> reqs;
    for (int i = 0; i < 30; ++i)
        reqs.push_back({0.001 * i, 4096, 64});
    Router router(build_replicas(2, 4));
    const Metrics via_cluster = router.run_workload(reqs);
    EXPECT_EQ(router.migration_count(), 0);
    expect_matches_golden(via_cluster, "migration_off_imbalanced");
}

} // namespace
} // namespace shiftpar::engine
