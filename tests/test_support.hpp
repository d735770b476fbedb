// Shared helpers for the engine test suites.
#pragma once

#include <gtest/gtest.h>

#include <limits>

#include "lazygraph.hpp"

namespace lazygraph::testsupport {

inline partition::DistributedGraph build_dgraph(
    const Graph& g, machine_t machines,
    partition::CutKind cut = partition::CutKind::kCoordinated,
    std::uint64_t seed = 7, bool split = false) {
  const auto assignment = partition::assign_edges(g, machines, {cut, seed});
  std::vector<std::uint64_t> split_edges;
  if (split) {
    partition::EdgeSplitterOptions opts;
    opts.t_extra = 0.001;
    split_edges = partition::select_split_edges(g, machines, opts);
  }
  return partition::DistributedGraph::build(g, machines, assignment,
                                            split_edges);
}

inline sim::Cluster make_cluster(machine_t machines) {
  return sim::Cluster(sim::ClusterConfig{machines, {}, /*threads=*/1});
}

/// Verifies a distributed SSSP result against Dijkstra; exact equality.
inline void expect_sssp_exact(const Graph& g, vid_t source,
                              const std::vector<algos::SSSP::VData>& got) {
  const auto expect = reference::sssp(g, source);
  ASSERT_EQ(got.size(), expect.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(got[v].dist, expect[v]) << "vertex " << v;
  }
}

/// Verifies distributed CC labels against union-find; exact equality.
inline void expect_cc_exact(
    const Graph& g, const std::vector<algos::ConnectedComponents::VData>& got) {
  const auto expect = reference::connected_components(g);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got[v].label, expect[v]) << "vertex " << v;
  }
}

/// Verifies distributed k-core membership against peeling; exact equality.
inline void expect_kcore_exact(const Graph& g, std::uint32_t k,
                               const std::vector<algos::KCore::VData>& got) {
  const auto expect = reference::kcore(g, k);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(!got[v].deleted, expect[v]) << "vertex " << v << " k=" << k;
  }
}

/// Verifies distributed PageRank against power iteration within tolerance.
inline void expect_pagerank_close(
    const Graph& g, const std::vector<algos::PageRankDelta::VData>& got,
    double tol) {
  const auto expect = reference::pagerank(g, 1e-12, 2000);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(got[v].rank, expect[v], 300 * tol) << "vertex " << v;
  }
}

/// An engine run's result plus the replica states its coherency inspector
/// saw last — the terminal states whenever the run converged (every engine
/// fires the inspector last on the terminal state).
template <engine::VertexProgram P>
struct RunWithStates {
  engine::RunResult<P> result;
  std::vector<engine::PartState<P>> states;
};

template <engine::VertexProgram P>
RunWithStates<P> run_keeping_states(const engine::RunConfig& cfg,
                                    const partition::DistributedGraph& dg,
                                    const P& prog, sim::Cluster& cluster) {
  RunWithStates<P> out;
  out.result = engine::run(
      cfg, dg, prog, cluster,
      [&out](std::uint64_t, const std::vector<engine::PartState<P>>& states) {
        out.states = states;
      });
  return out;
}

/// All replicas of every vertex hold the same final state (the paper's
/// coherency guarantee at termination), compared via `eq`.
template <class P, class Eq>
void expect_replicas_coherent(const partition::DistributedGraph& dg,
                              const std::vector<engine::PartState<P>>& states,
                              Eq eq) {
  for (machine_t m = 0; m < dg.num_machines(); ++m) {
    const partition::Part& part = dg.part(m);
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      for (const auto& [r, rl] : part.remote_replicas[v]) {
        EXPECT_TRUE(eq(states[m].vdata[v], states[r].vdata[rl]))
            << "replicas of vertex " << part.gids[v] << " diverge between "
            << m << " and " << r;
      }
    }
  }
}

}  // namespace lazygraph::testsupport
