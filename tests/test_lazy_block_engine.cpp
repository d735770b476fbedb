#include <gtest/gtest.h>

#include "test_support.hpp"

namespace lazygraph {
namespace {

using testsupport::build_dgraph;
using testsupport::make_cluster;

engine::RunConfig lazy_opts(
    engine::IntervalPolicy policy = engine::IntervalPolicy::kAdaptive) {
  return {.kind = engine::EngineKind::kLazyBlock,
          .interval = {.policy = policy}};
}

TEST(LazyBlockEngine, OneSyncPerSuperstep) {
  const Graph g = gen::erdos_renyi(200, 1000, 3, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  const auto opts = lazy_opts();
  const auto r = engine::run(opts, dg, algos::SSSP{.source = 0}, cl);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(cl.metrics().global_syncs, r.supersteps);
}

TEST(LazyBlockEngine, ReplicasCoherentAtTermination) {
  const Graph g = gen::rmat(9, 6, 0.55, 0.2, 0.2, 5, {1.0f, 9.0f});
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  const auto opts = lazy_opts();
  const auto run = testsupport::run_keeping_states(
      opts, dg, algos::SSSP{.source = 0}, cl);
  ASSERT_TRUE(run.result.converged);
  // The paper's correctness claim (Section 3.5): once quiescent, all
  // replicas of a vertex share the same global view.
  testsupport::expect_replicas_coherent(
      dg, run.states,
      [](const algos::SSSP::VData& a, const algos::SSSP::VData& b) {
        return a.dist == b.dist;
      });
  testsupport::expect_sssp_exact(g, 0, run.result.data);
}

TEST(LazyBlockEngine, PagerankReplicasConvergeToSameRanks) {
  const Graph g = gen::erdos_renyi(150, 900, 7);
  const auto dg = build_dgraph(g, 6);
  auto cl = make_cluster(6);
  const auto opts = lazy_opts();
  const algos::PageRankDelta pr{.tol = 1e-4};
  const auto run = testsupport::run_keeping_states(opts, dg, pr, cl);
  ASSERT_TRUE(run.result.converged);
  testsupport::expect_replicas_coherent(
      dg, run.states,
      [](const algos::PageRankDelta::VData& a,
         const algos::PageRankDelta::VData& b) {
        return std::abs(a.rank - b.rank) < 1e-9;
      });
  testsupport::expect_pagerank_close(g, run.result.data, 1e-4);
}

// Every interval policy must preserve correctness on every algorithm family.
class LazyPolicyCorrectness
    : public ::testing::TestWithParam<engine::IntervalPolicy> {};

TEST_P(LazyPolicyCorrectness, Sssp) {
  const Graph g = gen::road_lattice(18, 18, 0.3, 5, {1.0f, 7.0f});
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  const auto opts = lazy_opts(GetParam());
  const auto r = engine::run(opts, dg, algos::SSSP{.source = 3}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_sssp_exact(g, 3, r.data);
}

TEST_P(LazyPolicyCorrectness, Cc) {
  const Graph g = gen::erdos_renyi(400, 700, 9).symmetrized();
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  const auto opts = lazy_opts(GetParam());
  const auto r = engine::run(opts, dg, algos::ConnectedComponents{}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_cc_exact(g, r.data);
}

TEST_P(LazyPolicyCorrectness, Kcore) {
  const Graph g = gen::rmat(9, 5, 0.5, 0.22, 0.22, 13).symmetrized();
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  const auto opts = lazy_opts(GetParam());
  const auto r = engine::run(opts, dg, algos::KCore{.k = 5}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_kcore_exact(g, 5, r.data);
}

TEST_P(LazyPolicyCorrectness, Pagerank) {
  const Graph g = gen::erdos_renyi(200, 1600, 17);
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  const auto opts = lazy_opts(GetParam());
  const algos::PageRankDelta pr{.tol = 1e-4};
  const auto r = engine::run(opts, dg, pr, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_pagerank_close(g, r.data, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, LazyPolicyCorrectness,
                         ::testing::Values(engine::IntervalPolicy::kAdaptive,
                                           engine::IntervalPolicy::kAlwaysLazy,
                                           engine::IntervalPolicy::kNeverLazy),
                         [](const auto& info) {
                           std::string s = engine::to_string(info.param);
                           std::replace(s.begin(), s.end(), '-', '_');
                           return s;
                         });

// Both comm-mode policies and the adaptive switch preserve correctness,
// including the Inverse path (m2m on a non-idempotent Sum).
class LazyCommModeCorrectness
    : public ::testing::TestWithParam<engine::CommModePolicy> {};

TEST_P(LazyCommModeCorrectness, KcoreUsesInverseUnderM2m) {
  const Graph g = gen::rmat(9, 5, 0.5, 0.22, 0.22, 19).symmetrized();
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  auto opts = lazy_opts();
  opts.comm_policy = GetParam();
  const auto r = engine::run(opts, dg, algos::KCore{.k = 4}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_kcore_exact(g, 4, r.data);
}

TEST_P(LazyCommModeCorrectness, SsspIdempotentUnderBothModes) {
  const Graph g = gen::erdos_renyi(300, 1500, 23, {1.0f, 9.0f});
  const auto dg = build_dgraph(g, 8);
  auto cl = make_cluster(8);
  auto opts = lazy_opts();
  opts.comm_policy = GetParam();
  const auto r = engine::run(opts, dg, algos::SSSP{.source = 1}, cl);
  ASSERT_TRUE(r.converged);
  testsupport::expect_sssp_exact(g, 1, r.data);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, LazyCommModeCorrectness,
    ::testing::Values(engine::CommModePolicy::kAdaptive,
                      engine::CommModePolicy::kForceAllToAll,
                      engine::CommModePolicy::kForceMirrorsToMaster),
    [](const auto& info) {
      std::string s = engine::to_string(info.param);
      std::replace(s.begin(), s.end(), '-', '_');
      return s;
    });

TEST(LazyBlockEngine, ParallelEdgesPreserveResults) {
  const Graph g = gen::rmat(9, 8, 0.57, 0.19, 0.19, 3, {1.0f, 9.0f});
  const auto dg_plain = build_dgraph(g, 8);
  const auto dg_split = build_dgraph(g, 8, partition::CutKind::kCoordinated, 7,
                                     /*split=*/true);
  ASSERT_GT(dg_split.parallel_edge_copies(), 0u);
  const auto opts = lazy_opts();
  auto cl1 = make_cluster(8);
  auto cl2 = make_cluster(8);
  const auto a = engine::run(opts, dg_plain, algos::SSSP{.source = 0}, cl1);
  const auto b = engine::run(opts, dg_split, algos::SSSP{.source = 0}, cl2);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(a.data[v].dist, b.data[v].dist);
  }
}

TEST(LazyBlockEngine, FarFewerSyncsThanSyncOnRoadSssp) {
  // The paper's Fig. 10(c): road SSSP sync counts collapse under lazy
  // coherency (local stages absorb the wavefront's machine-local hops).
  const Graph g = gen::road_lattice(50, 50, 0.3, 5, {1.0f, 6.0f});
  const auto dg = build_dgraph(g, 8);
  auto cl_sync = make_cluster(8);
  auto cl_lazy = make_cluster(8);
  (void)engine::run({.kind = engine::EngineKind::kSync}, dg,
                    algos::SSSP{.source = 0}, cl_sync);
  const auto opts = lazy_opts();
  (void)engine::run(opts, dg, algos::SSSP{.source = 0}, cl_lazy);
  EXPECT_LT(cl_lazy.metrics().global_syncs,
            cl_sync.metrics().global_syncs / 4);
}

TEST(LazyBlockEngine, LessTrafficThanSyncOnPagerank) {
  // Fig. 11(b): lazy coherency ships aggregated deltas instead of the eager
  // accumulator + vertex-data broadcasts.
  const Graph g =
      datasets::make(datasets::spec_by_name("youtube-like"), 0.15);
  const auto dg = build_dgraph(g, 16);
  auto cl_sync = make_cluster(16);
  auto cl_lazy = make_cluster(16);
  (void)engine::run({.kind = engine::EngineKind::kSync}, dg,
                    algos::PageRankDelta{}, cl_sync);
  const auto opts = lazy_opts();
  (void)engine::run(opts, dg, algos::PageRankDelta{}, cl_lazy);
  EXPECT_LT(cl_lazy.metrics().global_syncs, cl_sync.metrics().global_syncs);
  EXPECT_LT(cl_lazy.metrics().network_bytes, cl_sync.metrics().network_bytes);
}

TEST(LazyBlockEngine, DeterministicAcrossRuns) {
  const Graph g = gen::rmat(8, 6, 0.55, 0.2, 0.2, 29, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 6);
  const auto opts = lazy_opts();
  auto cl1 = make_cluster(6);
  auto cl2 = make_cluster(6);
  const algos::PageRankDelta pr{.tol = 1e-4};
  const auto a = engine::run(opts, dg, pr, cl1);
  const auto b = engine::run(opts, dg, pr, cl2);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.data[v].rank, b.data[v].rank);  // bit-identical
  }
  EXPECT_EQ(cl1.metrics().network_bytes, cl2.metrics().network_bytes);
  EXPECT_EQ(cl1.metrics().global_syncs, cl2.metrics().global_syncs);
}

TEST(LazyBlockEngine, MaxSuperstepsBoundsRun) {
  const Graph g = gen::road_lattice(20, 20, 0.1, 3, {1.0f, 5.0f});
  const auto dg = build_dgraph(g, 4);
  auto cl = make_cluster(4);
  auto opts = lazy_opts();
  opts.max_supersteps = 2;
  const auto r = engine::run(opts, dg, algos::SSSP{.source = 0}, cl);
  EXPECT_FALSE(r.converged);
}

}  // namespace
}  // namespace lazygraph
