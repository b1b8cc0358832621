/** @file Parameterized closed-form checks for the collective cost models. */

#include <gtest/gtest.h>

#include "hw/interconnect.h"
#include "hw/presets.h"

namespace shiftpar::hw {
namespace {

class CollectiveSweep : public ::testing::TestWithParam<int>
{
  protected:
    LinkSpec switch_ = nvswitch();
    LinkSpec ring_ = pcie_gen5();
};

TEST_P(CollectiveSweep, SwitchAllReduceClosedForm)
{
    const int p = GetParam();
    const CollectiveModel c(switch_);
    const double bytes = 64e6;
    const double expect =
        2.0 * (p - 1.0) / p * bytes / (switch_.bw * switch_.efficiency) +
        2.0 * switch_.latency;
    EXPECT_DOUBLE_EQ(c.all_reduce(bytes, p), expect);
}

TEST_P(CollectiveSweep, RingAllReduceClosedForm)
{
    const int p = GetParam();
    const CollectiveModel c(ring_);
    const double bytes = 64e6;
    const double expect =
        2.0 * (p - 1.0) / p * bytes / (ring_.bw * ring_.efficiency) +
        2.0 * (p - 1.0) * ring_.latency;
    EXPECT_DOUBLE_EQ(c.all_reduce(bytes, p), expect);
}

TEST_P(CollectiveSweep, AllToAllClosedForm)
{
    const int p = GetParam();
    const CollectiveModel c(switch_);
    const double bytes = 16e6;
    const double expect =
        (p - 1.0) / p * bytes / (switch_.bw * switch_.efficiency) +
        switch_.latency;
    EXPECT_DOUBLE_EQ(c.all_to_all(bytes, p), expect);
}

TEST_P(CollectiveSweep, GatherScatterSymmetry)
{
    // An all-reduce is a reduce-scatter plus an all-gather: two symmetric
    // halves, each with the all-gather's wire volume and phase count, on
    // either fabric.
    const int p = GetParam();
    EXPECT_DOUBLE_EQ(CollectiveModel::all_reduce_volume(32e6, p),
                     2.0 * CollectiveModel::all_gather_volume(32e6, p));
    for (const FabricKind kind : {FabricKind::kRing, FabricKind::kSwitch})
        EXPECT_DOUBLE_EQ(CollectiveModel::all_reduce_phases(kind, p),
                         2.0 * CollectiveModel::exchange_phases(kind, p));
}

TEST_P(CollectiveSweep, AllReduceEqualsScatterPlusGatherOnSwitch)
{
    // The two-phase decomposition the switch model encodes; a
    // reduce-scatter moves what an all-gather moves, in as many phases.
    const int p = GetParam();
    const CollectiveModel c(switch_);
    const double bytes = 48e6;
    EXPECT_NEAR(c.all_reduce(bytes, p), 2.0 * c.all_gather(bytes, p), 1e-12);
}

TEST_P(CollectiveSweep, VolumeGrowsTowardAsymptote)
{
    // Per-rank wire volume approaches 2x (all-reduce) / 1x (all-to-all) of
    // the buffer as P grows, monotonically.
    const int p = GetParam();
    if (p < 3)
        GTEST_SKIP();
    EXPECT_GT(CollectiveModel::all_reduce_volume(1e6, p),
              CollectiveModel::all_reduce_volume(1e6, p - 1));
    EXPECT_LT(CollectiveModel::all_reduce_volume(1e6, p), 2e6);
    EXPECT_LT(CollectiveModel::all_to_all_volume(1e6, p), 1e6);
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveSweep,
                         ::testing::Values(2, 3, 4, 6, 8, 16));

} // namespace
} // namespace shiftpar::hw
