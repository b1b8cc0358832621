/**
 * @file
 * Metrics edge cases: merge with empty operands, self-merge, merge of
 * different bin widths, bit-exact merge equivalence with direct
 * accumulation, and zero-duration throughput / goodput queries.
 */

#include <gtest/gtest.h>

#include "engine/metrics.h"

using namespace shiftpar;
using engine::Metrics;
using engine::RequestRecord;
using engine::SloSpec;
using engine::StepRecord;

namespace {

RequestRecord
record(engine::RequestId id, double ttft, double tpot)
{
    RequestRecord rec;
    rec.id = id;
    rec.arrival = 0.0;
    rec.prompt_tokens = 100;
    rec.output_tokens = 20;
    rec.ttft = ttft;
    rec.tpot = tpot;
    rec.completion = ttft + tpot * 19;
    rec.wait = ttft / 2;
    return rec;
}

StepRecord
step(double start, double end, std::int64_t tokens, int sp)
{
    StepRecord s;
    s.start = start;
    s.end = end;
    s.batched_tokens = tokens;
    s.num_seqs = 1;
    s.cfg = {sp, 1};
    return s;
}

} // namespace

TEST(Metrics, MergeEmptyIsNoop)
{
    Metrics m(1.0);
    m.add_record(record(0, 0.1, 0.02));
    m.on_step(step(0.0, 1.0, 120, 4));

    const Metrics empty(1.0);
    m.merge(empty);
    EXPECT_EQ(m.requests().size(), 1u);
    EXPECT_EQ(m.steps().size(), 1u);
    EXPECT_EQ(m.total_tokens(), 120);
    EXPECT_DOUBLE_EQ(m.end_time(), 1.0);
}

TEST(Metrics, MergeIntoEmptyReproducesSource)
{
    Metrics src(1.0);
    src.add_record(record(0, 0.1, 0.02));
    src.add_record(record(1, 0.3, 0.04));
    src.on_step(step(0.0, 1.5, 200, 4));
    src.on_step(step(1.5, 2.0, 40, 1));

    Metrics dst(1.0);
    dst.merge(src);
    EXPECT_EQ(dst.requests().size(), src.requests().size());
    EXPECT_EQ(dst.total_tokens(), src.total_tokens());
    EXPECT_DOUBLE_EQ(dst.end_time(), src.end_time());
    EXPECT_DOUBLE_EQ(dst.mean_throughput(), src.mean_throughput());
    EXPECT_EQ(dst.sp_steps(), src.sp_steps());
    EXPECT_EQ(dst.tp_steps(), src.tp_steps());
    EXPECT_DOUBLE_EQ(dst.ttft().percentile(50), src.ttft().percentile(50));
}

TEST(Metrics, MergeMatchesDirectAccumulation)
{
    // The contract Router::merged_metrics relies on: merging b into a
    // equals, bit for bit, one Metrics fed a's records and then b's.
    Metrics a(1.0), b(1.0), direct(1.0);
    for (int i = 0; i < 20; ++i) {
        Metrics& part = i % 2 == 0 ? a : b;
        part.add_record(record(i, 0.05 * (i + 1), 0.01 * (i % 3 + 1)));
        StepRecord s = step(i * 0.5, i * 0.5 + 0.4, 64 + i, i % 2 ? 4 : 1);
        s.timing = {0.1 + 0.01 * i, 0.03 * i, 0.007, 0.002 * i};
        part.on_step(s);
    }
    for (const Metrics* part : {&a, &b}) {
        for (const RequestRecord& rec : part->requests())
            direct.add_record(rec);
        for (const StepRecord& s : part->steps())
            direct.on_step(s);
    }
    a.merge(b);

    ASSERT_EQ(a.requests().size(), direct.requests().size());
    for (std::size_t i = 0; i < a.requests().size(); ++i)
        EXPECT_EQ(a.requests()[i].id, direct.requests()[i].id) << i;
    ASSERT_EQ(a.steps().size(), direct.steps().size());
    for (std::size_t i = 0; i < a.steps().size(); ++i) {
        EXPECT_EQ(a.steps()[i].start, direct.steps()[i].start) << i;
        EXPECT_EQ(a.steps()[i].batched_tokens,
                  direct.steps()[i].batched_tokens) << i;
    }

    EXPECT_EQ(a.total_tokens(), direct.total_tokens());
    EXPECT_EQ(a.end_time(), direct.end_time());
    EXPECT_EQ(a.mean_throughput(), direct.mean_throughput());
    EXPECT_EQ(a.sp_steps(), direct.sp_steps());
    EXPECT_EQ(a.tp_steps(), direct.tp_steps());
    const auto same_histogram = [](const util::Histogram& x,
                                   const util::Histogram& y) {
        EXPECT_EQ(x.count(), y.count());
        EXPECT_EQ(x.sum(), y.sum());
        EXPECT_EQ(x.stddev(), y.stddev());
        EXPECT_EQ(x.percentile(50), y.percentile(50));
        EXPECT_EQ(x.percentile(90), y.percentile(90));
    };
    same_histogram(a.ttft(), direct.ttft());
    same_histogram(a.tpot(), direct.tpot());
    same_histogram(a.completion(), direct.completion());
    same_histogram(a.wait(), direct.wait());

    const TimeSeries at = a.throughput();
    const TimeSeries dt = direct.throughput();
    ASSERT_EQ(at.num_bins(), dt.num_bins());
    for (std::size_t i = 0; i < at.num_bins(); ++i)
        EXPECT_EQ(at.bin_value(i), dt.bin_value(i)) << i;
    EXPECT_EQ(at.peak_rate(), dt.peak_rate());

    const parallel::StepTiming ac = a.component_totals();
    const parallel::StepTiming dc = direct.component_totals();
    EXPECT_EQ(ac.gemm, dc.gemm);
    EXPECT_EQ(ac.attention, dc.attention);
    EXPECT_EQ(ac.comm, dc.comm);
    EXPECT_EQ(ac.overhead, dc.overhead);
}

TEST(Metrics, SelfMergeIsRejected)
{
    Metrics m(1.0);
    m.add_record(record(0, 0.1, 0.02));
    EXPECT_DEATH(m.merge(m), "itself");
}

TEST(Metrics, MergeOfDifferentBinWidthsIsRejected)
{
    Metrics coarse(1.0);
    Metrics fine(0.25);
    fine.on_step(step(0.0, 1.0, 120, 4));
    EXPECT_DEATH(coarse.merge(fine), "bin width");
}

TEST(Metrics, ZeroDurationRunHasZeroThroughput)
{
    Metrics m(1.0);
    EXPECT_EQ(m.mean_throughput(), 0.0);

    // Records without any step telemetry: end_time stays 0; throughput
    // and goodput must not divide by zero.
    m.add_record(record(0, 0.1, 0.02));
    EXPECT_EQ(m.end_time(), 0.0);
    EXPECT_EQ(m.mean_throughput(), 0.0);
    EXPECT_EQ(m.goodput({1.0, 1.0}), 0.0);
}

TEST(Metrics, EmptyMetricsSloQueriesAreZero)
{
    const Metrics m(1.0);
    const SloSpec slo{0.5, 0.05};
    EXPECT_EQ(m.slo_attainment(slo), 0.0);
    EXPECT_EQ(m.goodput(slo), 0.0);
}

TEST(Metrics, ZeroWidthStepIsAccepted)
{
    // A degenerate (instantaneous) step must not corrupt the timeline.
    Metrics m(1.0);
    m.on_step(step(2.0, 2.0, 10, 1));
    EXPECT_DOUBLE_EQ(m.end_time(), 2.0);
    EXPECT_DOUBLE_EQ(m.mean_throughput(), 5.0);
}

TEST(Metrics, MalformedStepIsRejected)
{
    Metrics m(1.0);
    EXPECT_DEATH(m.on_step(step(2.0, 1.0, 10, 1)), "malformed");
}

TEST(Metrics, GoodputCountsOnlySloSatisfyingTokens)
{
    Metrics m(1.0);
    m.add_record(record(0, 0.1, 0.01));  // meets SLO
    m.add_record(record(1, 9.0, 0.01));  // TTFT violation
    m.on_step(step(0.0, 10.0, 240, 4));

    const SloSpec slo{0.5, 0.05};
    EXPECT_DOUBLE_EQ(m.slo_attainment(slo), 0.5);
    // Only request 0's 120 tokens count, over the 10 s makespan.
    EXPECT_DOUBLE_EQ(m.goodput(slo), 12.0);
}
