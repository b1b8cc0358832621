/** @file Unit tests for Summary / TimeSeries accumulators. */

#include <gtest/gtest.h>

#include "util/stats.h"

namespace shiftpar {
namespace {

TEST(Summary, EmptyReturnsZeros)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Summary, MedianInterpolates)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Summary, PercentileEndpoints)
{
    Summary s;
    for (double v : {5.0, 1.0, 3.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(Summary, PercentileNumpyConvention)
{
    Summary s;
    for (double v : {10.0, 20.0, 30.0, 40.0, 50.0})
        s.add(v);
    // idx = 0.25 * 4 = 1.0 -> exactly the second order statistic.
    EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
    // idx = 0.9 * 4 = 3.6 -> 40 + 0.6 * 10.
    EXPECT_DOUBLE_EQ(s.percentile(90), 46.0);
}

TEST(Summary, QueriesInterleavedWithAdds)
{
    Summary s;
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.median(), 1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.median(), 2.0);
    s.add(100.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(Summary, StddevOfKnownSample)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev (n-1)
}

TEST(Summary, ClearResets)
{
    Summary s;
    s.add(5.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(TimeSeries, AccumulatesIntoBins)
{
    TimeSeries ts(2.0);
    ts.add(0.5, 10.0);
    ts.add(1.9, 5.0);
    ts.add(2.0, 7.0);
    EXPECT_EQ(ts.num_bins(), 2u);
    EXPECT_DOUBLE_EQ(ts.bin_value(0), 15.0);
    EXPECT_DOUBLE_EQ(ts.bin_value(1), 7.0);
    EXPECT_DOUBLE_EQ(ts.rate(0), 7.5);
    EXPECT_DOUBLE_EQ(ts.bin_start(1), 2.0);
}

TEST(TimeSeries, PeakRate)
{
    TimeSeries ts(1.0);
    ts.add(0.1, 3.0);
    ts.add(5.5, 20.0);
    EXPECT_DOUBLE_EQ(ts.peak_rate(), 20.0);
    EXPECT_DOUBLE_EQ(ts.bin_value(3), 0.0);  // untouched bin reads zero
}

TEST(TimeSeries, EmptyPeakIsZero)
{
    TimeSeries ts(1.0);
    EXPECT_DOUBLE_EQ(ts.peak_rate(), 0.0);
}

} // namespace
} // namespace shiftpar
