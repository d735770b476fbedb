#include <gtest/gtest.h>

#include "test_support.hpp"

namespace lazygraph {
namespace {

using testsupport::build_dgraph;
using testsupport::make_cluster;

const engine::RunConfig kSync{.kind = engine::EngineKind::kSync};

TEST(SyncEngine, ThreeSyncsPerSuperstep) {
  const Graph g = gen::erdos_renyi(100, 500, 3, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  const auto r = engine::run(kSync, dg, algos::SSSP{.source = 0}, cl);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(cl.metrics().global_syncs, 3 * r.supersteps);
}

TEST(SyncEngine, SsspExactOnWeightedGraph) {
  const Graph g = gen::erdos_renyi(300, 1500, 5, {1.0f, 9.0f});
  const auto dg = build_dgraph(g, 6);
  auto cl = make_cluster(6);
  const auto r = engine::run(kSync, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_sssp_exact(g, 0, r.data);
}

TEST(SyncEngine, SingleMachineDegeneratesGracefully) {
  const Graph g = gen::path(20, {1.0f, 1.0f});
  const auto dg = build_dgraph(g, 1);
  auto cl = make_cluster(1);
  const auto r = engine::run(kSync, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_sssp_exact(g, 0, r.data);
  EXPECT_EQ(cl.metrics().network_messages, 0u);  // no mirrors, no traffic
}

TEST(SyncEngine, PathNeedsOneSuperstepPerHop) {
  const Graph g = gen::path(12, {1.0f, 1.0f});
  const auto dg = build_dgraph(g, 4, partition::CutKind::kRandom);
  auto cl = make_cluster(4);
  const auto r = engine::run(kSync, dg, algos::BFS{.source = 0}, cl);
  ASSERT_TRUE(r.converged);
  // BSP propagation: at least one superstep per hop on an 11-hop path.
  EXPECT_GE(r.supersteps, 11u);
}

TEST(SyncEngine, RefusesSplitGraphs) {
  const Graph g = gen::rmat(8, 6, 0.57, 0.19, 0.19, 3);
  const auto dg = build_dgraph(g, 4, partition::CutKind::kCoordinated, 7,
                               /*split=*/true);
  ASSERT_GT(dg.parallel_edge_copies(), 0u);
  auto cl = make_cluster(4);
  EXPECT_THROW(engine::run(kSync, dg, algos::SSSP{.source = 0}, cl),
               std::invalid_argument);
}

TEST(SyncEngine, RefusesMachineMismatch) {
  const Graph g = gen::erdos_renyi(50, 200, 1);
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(8);
  EXPECT_THROW(engine::run(kSync, dg, algos::SSSP{.source = 0}, cl),
               std::invalid_argument);
}

TEST(SyncEngine, MaxSuperstepsBoundsRun) {
  const Graph g = gen::road_lattice(20, 20, 0.1, 3, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  engine::RunConfig cfg = kSync;
  cfg.max_supersteps = 3;
  const auto r = engine::run(cfg, dg, algos::SSSP{.source = 0}, cl);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.supersteps, 3u);
}

TEST(SyncEngine, MirrorsReceiveEagerDataUpdates) {
  const Graph g = gen::erdos_renyi(200, 1200, 9, {1.0f, 4.0f});
  const auto dg = build_dgraph(g, 6);
  auto cl = make_cluster(6);
  const auto run =
      testsupport::run_keeping_states(kSync, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(run.result.converged);
  // Eager coherency: every replica equals the master copy at all times,
  // so certainly at termination.
  testsupport::expect_replicas_coherent(
      dg, run.states,
      [](const algos::SSSP::VData& a, const algos::SSSP::VData& b) {
        return a.dist == b.dist;
      });
}

TEST(SyncEngine, TrafficGrowsWithReplication) {
  const Graph g = gen::rmat(9, 8, 0.57, 0.19, 0.19, 3);
  const auto dg2 = build_dgraph(g, 2);
  const auto dg16 = build_dgraph(g, 16);
  auto cl2 = make_cluster(2);
  auto cl16 = make_cluster(16);
  (void)engine::run(kSync, dg2, algos::ConnectedComponents{}, cl2);
  (void)engine::run(kSync, dg16, algos::ConnectedComponents{}, cl16);
  EXPECT_GT(cl16.metrics().network_bytes, cl2.metrics().network_bytes);
}

TEST(SyncEngine, GatherChargesFullInNeighborhood) {
  // PowerGraph gathers over all in-edges of an active vertex each superstep,
  // so sync traversals exceed the push-based message count substantially on
  // a graph that stays active a while.
  const Graph g = gen::erdos_renyi(200, 2000, 5, {1.0f, 9.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  (void)engine::run(kSync, dg, algos::SSSP{.source = 0}, cl);
  EXPECT_GT(cl.metrics().edge_traversals, g.num_edges());
}

}  // namespace
}  // namespace lazygraph
