#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sim/cluster.hpp"

namespace lazygraph::sim {
namespace {

TEST(Cluster, RunsEveryMachineOnce) {
  Cluster cl({.machines = 16});
  std::vector<std::atomic<int>> hits(16);
  cl.parallel_machines([&](machine_t m) { ++hits[m]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Cluster, SerialModeWorks) {
  Cluster cl({.machines = 8, .net = {}, .threads = 1});
  std::vector<machine_t> order;
  cl.parallel_machines([&](machine_t m) { order.push_back(m); });
  ASSERT_EQ(order.size(), 8u);
  for (machine_t m = 0; m < 8; ++m) EXPECT_EQ(order[m], m);
}

// current_machine() names the running body's machine, on the serial path
// and on the pool, is restored after a nested cluster's bodies, and is unset
// outside every body.
TEST(Cluster, CurrentMachineIsSetInsideBodies) {
  EXPECT_EQ(current_machine(), kInvalidMachine);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Cluster cl({.machines = 8, .net = {}, .threads = threads});
    Cluster inner({.machines = 2, .net = {}, .threads = 1});
    std::vector<machine_t> seen(8, kInvalidMachine), after(8, 0);
    cl.parallel_machines([&](machine_t m) {
      seen[m] = current_machine();
      inner.parallel_machines([](machine_t) {});
      after[m] = current_machine();
    });
    for (machine_t m = 0; m < 8; ++m) {
      EXPECT_EQ(seen[m], m) << "threads " << threads;
      EXPECT_EQ(after[m], m) << "threads " << threads;
    }
    EXPECT_EQ(current_machine(), kInvalidMachine);
  }
}

TEST(Cluster, RejectsZeroMachines) {
  EXPECT_THROW(Cluster({.machines = 0}), std::invalid_argument);
}

TEST(Cluster, ChargeComputeUsesMaxAcrossMachines) {
  ClusterConfig cfg{.machines = 4};
  cfg.net.teps = 1e6;
  Cluster cl(cfg);
  const std::vector<std::uint64_t> work = {100, 400'000, 200, 300};
  cl.charge_compute(work);
  EXPECT_DOUBLE_EQ(cl.metrics().compute_seconds, 0.4);  // max / teps
  EXPECT_EQ(cl.metrics().edge_traversals, 400'600u);    // sum
}

TEST(Cluster, ChargeBarrierCountsGlobalSyncs) {
  Cluster cl({.machines = 8});
  cl.charge_barrier();
  cl.charge_barrier();
  EXPECT_EQ(cl.metrics().global_syncs, 2u);
  EXPECT_GT(cl.metrics().barrier_seconds, 0.0);
}

TEST(Cluster, ChargeExchangeTracksModeCountsAndBytes) {
  Cluster cl({.machines = 8});
  cl.charge_exchange(CommMode::kAllToAll, 1024, 10);
  cl.charge_exchange(CommMode::kMirrorsToMaster, 2048, 20);
  const SimMetrics& m = cl.metrics();
  EXPECT_EQ(m.a2a_exchanges, 1u);
  EXPECT_EQ(m.m2m_exchanges, 1u);
  EXPECT_EQ(m.network_bytes, 3072u);
  EXPECT_EQ(m.network_messages, 30u);
  EXPECT_GT(m.comm_seconds, 0.0);
}

TEST(Cluster, FineGrainedChargesOverheadNotBarriers) {
  Cluster cl({.machines = 8});
  cl.charge_fine_grained(4096, 100);
  EXPECT_EQ(cl.metrics().global_syncs, 0u);
  EXPECT_GT(cl.metrics().overhead_seconds, 0.0);
  EXPECT_EQ(cl.metrics().network_messages, 100u);
}

TEST(Cluster, ResetMetricsClearsEverything) {
  Cluster cl({.machines = 4});
  cl.charge_barrier();
  cl.charge_fine_grained(100, 1);
  cl.reset_metrics();
  EXPECT_EQ(cl.metrics().global_syncs, 0u);
  EXPECT_DOUBLE_EQ(cl.metrics().sim_seconds(), 0.0);
}

TEST(SimMetricsTest, SimSecondsIsComponentSum) {
  SimMetrics m;
  m.compute_seconds = 1.0;
  m.comm_seconds = 2.0;
  m.barrier_seconds = 0.5;
  m.overhead_seconds = 0.25;
  EXPECT_DOUBLE_EQ(m.sim_seconds(), 3.75);
}

TEST(SimMetricsTest, NetworkMbConversion) {
  SimMetrics m;
  m.network_bytes = 2 * 1024 * 1024;
  EXPECT_DOUBLE_EQ(m.network_mb(), 2.0);
}

TEST(SimMetricsTest, PrintsAllFields) {
  SimMetrics m;
  m.global_syncs = 7;
  std::ostringstream os;
  m.print(os, "x");
  EXPECT_NE(os.str().find("syncs=7"), std::string::npos);
}

}  // namespace
}  // namespace lazygraph::sim
