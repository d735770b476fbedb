#include <gtest/gtest.h>

#include "test_support.hpp"

namespace lazygraph {
namespace {

using testsupport::build_dgraph;
using testsupport::make_cluster;

const engine::RunConfig kLazyVertex{.kind = engine::EngineKind::kLazyVertex};

TEST(LazyVertexEngine, BarrierFree) {
  const Graph g = gen::erdos_renyi(200, 1000, 3, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  const auto r = engine::run(kLazyVertex, dg, algos::SSSP{.source = 0}, cl);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(cl.metrics().global_syncs, 0u);
  EXPECT_GT(cl.metrics().vertex_coherency_events, 0u);
}

TEST(LazyVertexEngine, SsspExact) {
  const Graph g = gen::erdos_renyi(300, 1500, 5, {1.0f, 9.0f});
  const auto dg = build_dgraph(g, 6);
  auto cl = make_cluster(6);
  const auto r = engine::run(kLazyVertex, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_sssp_exact(g, 0, r.data);
}

TEST(LazyVertexEngine, CcExact) {
  const Graph g = gen::erdos_renyi(400, 800, 9).symmetrized();
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  const auto r = engine::run(kLazyVertex, dg, algos::ConnectedComponents{}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_cc_exact(g, r.data);
}

TEST(LazyVertexEngine, KcoreExactWithInversePath) {
  const Graph g = gen::rmat(9, 5, 0.5, 0.22, 0.22, 13).symmetrized();
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  const auto r = engine::run(kLazyVertex, dg, algos::KCore{.k = 5}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_kcore_exact(g, 5, r.data);
}

TEST(LazyVertexEngine, PagerankWithinTolerance) {
  const Graph g = gen::erdos_renyi(150, 900, 19);
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  const algos::PageRankDelta pr{.tol = 1e-4};
  const auto r = engine::run(kLazyVertex, dg, pr, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_pagerank_close(g, r.data, 1e-4);
}

TEST(LazyVertexEngine, ReplicasCoherentAtTermination) {
  const Graph g = gen::rmat(8, 6, 0.55, 0.2, 0.2, 5, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  const auto run = testsupport::run_keeping_states(
      kLazyVertex, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(run.result.converged);
  testsupport::expect_replicas_coherent(
      dg, run.states,
      [](const algos::SSSP::VData& a, const algos::SSSP::VData& b) {
        return a.dist == b.dist;
      });
}

// Correctness must hold for any staleness bound (how long a replica defers
// its per-vertex coherency).
class LazyVertexStaleness : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LazyVertexStaleness, SsspExactAtAnyStaleness) {
  const Graph g = gen::road_lattice(15, 15, 0.3, 5, {1.0f, 7.0f});
  const auto dg = build_dgraph(g, 6);
  auto cl = make_cluster(6);
  engine::RunConfig opts = kLazyVertex;
  opts.staleness = GetParam();
  const auto r = engine::run(opts, dg, algos::SSSP{.source = 2}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_sssp_exact(g, 2, r.data);
}

TEST_P(LazyVertexStaleness, KcoreExactAtAnyStaleness) {
  const Graph g = gen::erdos_renyi(300, 1800, 41).symmetrized();
  const auto dg = build_dgraph(g, 6);
  auto cl = make_cluster(6);
  engine::RunConfig opts = kLazyVertex;
  opts.staleness = GetParam();
  const auto r = engine::run(opts, dg, algos::KCore{.k = 6}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_kcore_exact(g, 6, r.data);
}

INSTANTIATE_TEST_SUITE_P(StalenessSweep, LazyVertexStaleness,
                         ::testing::Values(1u, 2u, 4u, 16u, 1000u));

TEST(LazyVertexEngine, HigherStalenessFewerCoherencyEvents) {
  const Graph g = gen::erdos_renyi(300, 1800, 3, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 8);
  std::uint64_t events[2];
  int i = 0;
  for (const std::uint32_t staleness : {1u, 64u}) {
    auto cl = make_cluster(8);
    engine::RunConfig opts = kLazyVertex;
    opts.staleness = staleness;
    (void)engine::run(opts, dg, algos::SSSP{.source = 0}, cl);
    events[i++] = cl.metrics().vertex_coherency_events;
  }
  EXPECT_GE(events[0], events[1]);
}

TEST(LazyVertexEngine, WorksOnSplitGraphs) {
  const Graph g = gen::rmat(8, 8, 0.57, 0.19, 0.19, 3, {1.0f, 9.0f});
  const auto dg = build_dgraph(g, 8, partition::CutKind::kCoordinated, 7,
                               /*split=*/true);
  ASSERT_GT(dg.parallel_edge_copies(), 0u);
  auto cl = make_cluster(8);
  const auto r = engine::run(kLazyVertex, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_sssp_exact(g, 0, r.data);
}

// Regression: the terminal convergence-detection cycle (drain finds nothing,
// final flush delivers nothing) used to be counted as a superstep, so
// result.supersteps disagreed with the trace's snapshot count by one.
TEST(LazyVertexEngine, SuperstepCountMatchesTraceSnapshots) {
  const Graph g = gen::rmat(7, 6, 0.57, 0.19, 0.19, 11, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  sim::Tracer tracer;
  cl.set_tracer(&tracer);
  const auto r = engine::run(kLazyVertex, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(tracer.snapshots().size(), r.supersteps);
  EXPECT_EQ(r.metrics.supersteps, r.supersteps);
}

// Regression: on drain cycles (all queues empty, flush_all_deltas reactivates
// vertices) the superstep snapshot used to record the pre-flush queue length
// of zero instead of the activations the flush just delivered.
TEST(LazyVertexEngine, DrainCycleSnapshotsReportDeliveredActivations) {
  // A path scattered across two machines (random cut, so plenty of vertices
  // span both) with staleness high enough that deltas only ever cross the
  // boundary via drain-cycle flushes: one machine's queue runs dry, the flush
  // reactivates the boundary replicas, and the cycle that processes them must
  // not be logged as having zero activations.
  const Graph g = gen::path(40, {1.0f, 1.0f});
  const auto dg = build_dgraph(g, 2, partition::CutKind::kRandom);
  ASSERT_GT(dg.replication_factor(), 1.0);
  auto cl = make_cluster(2);
  sim::Tracer tracer;
  cl.set_tracer(&tracer);
  engine::RunConfig opts = kLazyVertex;
  opts.staleness = 1000;  // never reach a per-vertex coherency event
  const auto r = engine::run(opts, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_sssp_exact(g, 0, r.data);
  // The far end of the path is only reachable through drain-cycle flushes.
  ASSERT_GT(cl.metrics().vertex_coherency_events, 0u);
  ASSERT_GE(tracer.snapshots().size(), 2u);
  for (const sim::SuperstepSnapshot& snap : tracer.snapshots()) {
    EXPECT_GT(snap.active_vertices, 0u)
        << "superstep " << snap.superstep
        << " did work but recorded zero active vertices";
  }
}

}  // namespace
}  // namespace lazygraph
