#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/resources.h"
#include "sim/scheduler.h"
#include "sim/straggler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace ipso::sim {
namespace {

TEST(CpuModel, ConvertsOpsToSeconds) {
  CpuModel cpu{1e8};
  EXPECT_DOUBLE_EQ(cpu.time_for(2e8), 2.0);
  EXPECT_DOUBLE_EQ(cpu.time_for(0.0), 0.0);
}

TEST(DiskModel, StreamsBytes) {
  DiskModel disk{100e6};
  EXPECT_DOUBLE_EQ(disk.time_for(200e6), 2.0);
}

TEST(MemoryModel, OverflowBytes) {
  MemoryModel mem{2e9};
  EXPECT_DOUBLE_EQ(mem.overflow_bytes(1e9), 0.0);
  EXPECT_DOUBLE_EQ(mem.overflow_bytes(2e9), 0.0);
  EXPECT_DOUBLE_EQ(mem.overflow_bytes(3e9), 1e9);
  EXPECT_FALSE(mem.overflows(2e9));
  EXPECT_TRUE(mem.overflows(2e9 + 1));
}

TEST(NetworkModel, TransferIncludesLatency) {
  NetworkModel net{50e6, 1e-3, 0.0};
  EXPECT_DOUBLE_EQ(net.transfer_time(50e6), 1.0 + 1e-3);
}

TEST(NetworkModel, IncastPenaltyGrowsWithSenders) {
  NetworkModel net{50e6, 0.0, 0.01};
  const double one = net.transfer_time(50e6, 1);
  const double many = net.transfer_time(50e6, 11);
  EXPECT_DOUBLE_EQ(one, 1.0);
  EXPECT_DOUBLE_EQ(many, 1.1);  // 10 extra senders * 1% each
}

TEST(NetworkModel, BroadcastSerializesAtMaster) {
  NetworkModel net{50e6, 0.0, 0.0};
  // 8 receivers, 50 MB each: the master uplink sends 8 copies in turn.
  EXPECT_DOUBLE_EQ(net.broadcast_time(50e6, 8), 8.0);
  EXPECT_DOUBLE_EQ(net.broadcast_time(50e6, 1), 1.0);
}

TEST(SchedulerModel, PerTaskCostGrowsWithContention) {
  SchedulerModel sched;
  sched.base_cost_seconds = 0.01;
  sched.contention_coeff = 0.001;
  sched.contention_exponent = 1.0;
  EXPECT_DOUBLE_EQ(sched.per_task_cost(1), 0.011);
  EXPECT_DOUBLE_EQ(sched.per_task_cost(100), 0.11);
}

TEST(SchedulerModel, DispatchIsSerial) {
  SchedulerModel sched;
  sched.base_cost_seconds = 0.01;
  const auto offsets = sched.dispatch_offsets(3, 3);
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_DOUBLE_EQ(offsets[0], 0.01);
  EXPECT_DOUBLE_EQ(offsets[1], 0.02);
  EXPECT_DOUBLE_EQ(offsets[2], 0.03);
  EXPECT_DOUBLE_EQ(sched.total_dispatch_time(3, 3), 0.03);
}

TEST(Straggler, DisabledIsUnity) {
  StragglerModel s;
  stats::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(s.factor(rng), 1.0);
}

TEST(Straggler, EnabledIsBoundedAndMeanOne) {
  StragglerModel s;
  s.enabled = true;
  s.cap = 3.0;
  // Normalized mode: draws live in [1/E, cap/E] where E is the truncated
  // mean, and the sample mean converges to 1 (pure dispersion, no mean
  // shift — Eq. 8's E[X] = 1 normalization).
  const double raw_mean = stats::capped_pareto_mean(s.tail_shape, s.cap);
  stats::Rng rng(2);
  double max_seen = 0.0;
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double f = s.factor(rng);
    EXPECT_GE(f, 1.0 / raw_mean - 1e-12);
    EXPECT_LE(f, 3.0 / raw_mean + 1e-12);
    max_seen = std::max(max_seen, f);
    sum += f;
  }
  EXPECT_GT(max_seen, 1.5);  // the tail actually produces stragglers
  EXPECT_NEAR(sum / kDraws, 1.0, 5e-3);
}

TEST(Straggler, RawModeKeepsHistoricalSupport) {
  StragglerModel s;
  s.enabled = true;
  s.cap = 3.0;
  s.normalize_mean = false;
  stats::Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double f = s.factor(rng);
    EXPECT_GE(f, 1.0);
    EXPECT_LE(f, 3.0);
  }
}

TEST(Straggler, TruncatedMeanMatchesCappedParetoFormula) {
  // The helper is the single source of truth for both sim::StragglerModel
  // and core::CappedParetoTime; spot-check it against a direct Monte Carlo
  // estimate of E[heavy_tail(1, shape, cap)].
  const double analytic = stats::capped_pareto_mean(3.0, 4.0);
  stats::Rng rng(7);
  double sum = 0.0;
  constexpr int kDraws = 400000;
  for (int i = 0; i < kDraws; ++i) sum += rng.heavy_tail(1.0, 3.0, 4.0);
  EXPECT_NEAR(sum / kDraws, analytic, 5e-3);
}

TEST(ClusterConfig, DefaultEmrIsValid) {
  const ClusterConfig cfg = default_emr_cluster(16);
  EXPECT_EQ(cfg.workers, 16u);
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_DOUBLE_EQ(cfg.reducer_memory.capacity_bytes, 2e9);
}

TEST(ClusterConfig, ValidateRejectsZeroWorkers) {
  ClusterConfig cfg = default_emr_cluster(1);
  cfg.workers = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterConfig, ValidateRejectsNonPositiveRates) {
  ClusterConfig cfg = default_emr_cluster(1);
  cfg.worker_cpu.ops_per_second = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PhaseBreakdown, TotalsAndSerial) {
  PhaseBreakdown p;
  p.init = 1.0;
  p.map = 10.0;
  p.shuffle = 2.0;
  p.merge = 3.0;
  p.reduce = 0.5;
  EXPECT_DOUBLE_EQ(p.total(), 16.5);
  EXPECT_DOUBLE_EQ(p.serial(), 5.5);
}

TEST(PhaseBreakdown, QuantizationRoundsToPrecision) {
  PhaseBreakdown p;
  p.map = 10.4;
  p.merge = 0.4;  // sub-second phase disappears at 1 s precision
  const PhaseBreakdown q = p.quantized(1.0);
  EXPECT_DOUBLE_EQ(q.map, 10.0);
  EXPECT_DOUBLE_EQ(q.merge, 0.0);
  // Zero precision = exact.
  EXPECT_DOUBLE_EQ(p.quantized(0.0).merge, 0.4);
}

}  // namespace
}  // namespace ipso::sim
