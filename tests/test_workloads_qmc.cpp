#include "workloads/qmc_pi.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ipso::wl {
namespace {

TEST(VanDerCorput, KnownBaseTwoPrefix) {
  EXPECT_DOUBLE_EQ(van_der_corput(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(van_der_corput(2, 2), 0.25);
  EXPECT_DOUBLE_EQ(van_der_corput(3, 2), 0.75);
  EXPECT_DOUBLE_EQ(van_der_corput(4, 2), 0.125);
}

TEST(VanDerCorput, KnownBaseThreePrefix) {
  EXPECT_NEAR(van_der_corput(1, 3), 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(van_der_corput(2, 3), 2.0 / 3.0, 1e-15);
  EXPECT_NEAR(van_der_corput(3, 3), 1.0 / 9.0, 1e-15);
}

TEST(VanDerCorput, StaysInUnitInterval) {
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const double v = van_der_corput(i, 2);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(QmcMap, TallyCountsAddUp) {
  const QmcTally t = qmc_map(0, 5000);
  EXPECT_EQ(t.inside + t.outside, 5000u);
  EXPECT_GT(t.inside, 0u);
  EXPECT_GT(t.outside, 0u);
}

TEST(QmcMap, DisjointSlicesTileTheSequence) {
  // Two half-slices must tally exactly like one full slice.
  const QmcTally a = qmc_map(0, 2500);
  const QmcTally b = qmc_map(2500, 2500);
  const QmcTally whole = qmc_map(0, 5000);
  EXPECT_EQ(a.inside + b.inside, whole.inside);
  EXPECT_EQ(a.outside + b.outside, whole.outside);
}

/// Estimate of pi from one task over the first `samples` Halton points.
double single_task_estimate(std::uint64_t samples) {
  const QmcTally t = qmc_map(0, samples);
  return qmc_estimate(&t, 1);
}

TEST(QmcEstimate, ConvergesToPi) {
  // Quasi-random sequences converge ~1/N: 200k samples is plenty for 1e-2.
  EXPECT_NEAR(single_task_estimate(200000), M_PI, 1e-2);
}

TEST(QmcEstimate, MoreSamplesTightens) {
  const double rough = std::abs(single_task_estimate(2000) - M_PI);
  const double fine = std::abs(single_task_estimate(200000) - M_PI);
  EXPECT_LT(fine, rough);
}

TEST(QmcEstimate, EmptyTallyIsZero) {
  EXPECT_DOUBLE_EQ(qmc_estimate(nullptr, 0), 0.0);
}

TEST(QmcEstimate, TaskCountDoesNotChangeResult) {
  // Same total samples, different task splits: identical estimate.
  std::vector<QmcTally> four;
  std::vector<QmcTally> eight;
  for (std::uint64_t t = 0; t < 4; ++t) {
    four.push_back(qmc_map(t * 10000, 10000));
  }
  for (std::uint64_t t = 0; t < 8; ++t) {
    eight.push_back(qmc_map(t * 5000, 5000));
  }
  EXPECT_DOUBLE_EQ(qmc_estimate(four.data(), four.size()),
                   qmc_estimate(eight.data(), eight.size()));
}

TEST(QmcSpec, NearZeroSerialPortion) {
  const auto spec = qmc_pi_spec();
  // eta at 128 MB-equivalent shards must be ~1 (the It precondition).
  const double tp1 = spec.map_ops(128e6) / 1e8;
  const double ts1 =
      (spec.fixed_reduce_ops + spec.merge_ops(spec.intermediate_bytes(128e6))) /
      1e8;
  EXPECT_GT(tp1 / (tp1 + ts1), 0.99);
}

}  // namespace
}  // namespace ipso::wl
