#include <gtest/gtest.h>

#include "test_support.hpp"

namespace lazygraph {
namespace {

using testsupport::build_dgraph;
using testsupport::make_cluster;

const engine::RunConfig kAsync{.kind = engine::EngineKind::kAsync};

TEST(AsyncEngine, NoGlobalSynchronizations) {
  const Graph g = gen::erdos_renyi(200, 1000, 3, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  const auto r = engine::run(kAsync, dg, algos::SSSP{.source = 0}, cl);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(cl.metrics().global_syncs, 0u);
  EXPECT_GT(cl.metrics().overhead_seconds, 0.0);  // fine-grained messaging
}

TEST(AsyncEngine, SsspExact) {
  const Graph g = gen::erdos_renyi(300, 1500, 5, {1.0f, 9.0f});
  const auto dg = build_dgraph(g, 6);
  auto cl = make_cluster(6);
  const auto r = engine::run(kAsync, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_sssp_exact(g, 0, r.data);
}

TEST(AsyncEngine, ConvergesInFewerRoundsThanSyncSupersteps) {
  // Immediate visibility lets a path propagate through co-located chains in
  // one round; Sync pays a superstep per hop.
  const Graph g = gen::path(64, {1.0f, 1.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl_sync = make_cluster(4);
  auto cl_async = make_cluster(4);
  const auto s = engine::run({.kind = engine::EngineKind::kSync}, dg,
                             algos::BFS{.source = 0}, cl_sync);
  const auto a = engine::run(kAsync, dg, algos::BFS{.source = 0}, cl_async);
  ASSERT_TRUE(s.converged);
  ASSERT_TRUE(a.converged);
  EXPECT_LT(a.supersteps, s.supersteps);
}

TEST(AsyncEngine, EagerCoherencyKeepsReplicasIdentical) {
  const Graph g = gen::rmat(8, 6, 0.55, 0.2, 0.2, 5, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  const auto run =
      testsupport::run_keeping_states(kAsync, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(run.result.converged);
  testsupport::expect_replicas_coherent(
      dg, run.states,
      [](const algos::SSSP::VData& a, const algos::SSSP::VData& b) {
        return a.dist == b.dist;
      });
}

TEST(AsyncEngine, PagerankWithinTolerance) {
  const Graph g = gen::erdos_renyi(150, 900, 19);
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  const algos::PageRankDelta pr{.tol = 1e-4};
  const auto r = engine::run(kAsync, dg, pr, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_pagerank_close(g, r.data, 1e-4);
}

TEST(AsyncEngine, KcoreExact) {
  const Graph g = gen::rmat(8, 5, 0.5, 0.22, 0.22, 13).symmetrized();
  const auto dg = build_dgraph(g, 6);
  auto cl = make_cluster(6);
  const auto r = engine::run(kAsync, dg, algos::KCore{.k = 4}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_kcore_exact(g, 4, r.data);
}

TEST(AsyncEngine, RefusesSplitGraphs) {
  const Graph g = gen::rmat(8, 6, 0.57, 0.19, 0.19, 3);
  const auto dg = build_dgraph(g, 4, partition::CutKind::kCoordinated, 7,
                               /*split=*/true);
  ASSERT_GT(dg.parallel_edge_copies(), 0u);
  auto cl = make_cluster(4);
  EXPECT_THROW(engine::run(kAsync, dg, algos::SSSP{.source = 0}, cl),
               std::invalid_argument);
}

TEST(AsyncEngine, FineGrainedMessagingCostsOverheadLazyAvoids) {
  const Graph g = gen::erdos_renyi(400, 2400, 31, {1.0f, 6.0f});
  const auto dg = build_dgraph(g, 8);
  auto cl_async = make_cluster(8);
  auto cl_lazy = make_cluster(8);
  (void)engine::run(kAsync, dg, algos::SSSP{.source = 0}, cl_async);
  (void)engine::run({.kind = engine::EngineKind::kLazyBlock}, dg,
                    algos::SSSP{.source = 0}, cl_lazy);
  // Eager async pays per-message software overhead on every fine-grained
  // send; lazy batches everything into coherency exchanges and pays none.
  EXPECT_GT(cl_async.metrics().overhead_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cl_lazy.metrics().overhead_seconds, 0.0);
  EXPECT_GT(cl_async.metrics().network_messages, 0u);
}

TEST(AsyncEngine, MaxRoundsBoundsRun) {
  const Graph g = gen::road_lattice(20, 20, 0.1, 3, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  engine::RunConfig cfg = kAsync;
  cfg.max_supersteps = 1;
  const auto r = engine::run(cfg, dg, algos::SSSP{.source = 0}, cl);
  EXPECT_FALSE(r.converged);
}

}  // namespace
}  // namespace lazygraph
