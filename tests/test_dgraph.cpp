#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "graph/generators.hpp"
#include "partition/dgraph.hpp"
#include "partition/edge_splitter.hpp"

namespace lazygraph::partition {
namespace {

DistributedGraph make_dg(const Graph& g, machine_t machines,
                         CutKind kind = CutKind::kCoordinated) {
  return DistributedGraph::build(g, machines,
                                 assign_edges(g, machines, {kind, 7}));
}

TEST(DGraph, EveryEdgeAppearsExactlyOnce) {
  const Graph g = gen::rmat(9, 5, 0.5, 0.2, 0.2, 3);
  const auto dg = make_dg(g, 8);
  EXPECT_EQ(dg.total_local_edges(), g.num_edges());
}

TEST(DGraph, LocalEdgesPreserveEndpointsAndWeights) {
  const Graph g = gen::erdos_renyi(100, 400, 5, {1.0f, 9.0f});
  const auto dg = make_dg(g, 4);
  std::multiset<std::tuple<vid_t, vid_t, float>> expect, got;
  for (const Edge& e : g.edges()) expect.insert({e.src, e.dst, e.weight});
  for (machine_t m = 0; m < 4; ++m) {
    const Part& part = dg.part(m);
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
        got.insert({part.gids[v], part.gids[part.targets[e]],
                    part.weights[e]});
      }
    }
  }
  EXPECT_EQ(got, expect);
}

TEST(DGraph, EveryVertexHasExactlyOneMaster) {
  const Graph g = gen::rmat(9, 5, 0.5, 0.2, 0.2, 3);
  const machine_t p = 8;
  const auto dg = make_dg(g, p);
  std::vector<int> masters(g.num_vertices(), 0);
  for (machine_t m = 0; m < p; ++m) {
    const Part& part = dg.part(m);
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      if (part.master[v] == m) ++masters[part.gids[v]];
      EXPECT_EQ(part.master[v], dg.master_of(part.gids[v]));
    }
  }
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(masters[v], 1) << "vertex " << v;
  }
}

TEST(DGraph, MasterIsAmongReplicas) {
  const Graph g = gen::erdos_renyi(200, 800, 9);
  const auto dg = make_dg(g, 6);
  for (machine_t m = 0; m < 6; ++m) {
    const Part& part = dg.part(m);
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      EXPECT_TRUE(part.replica_mask[v] >> part.master[v] & 1);
    }
  }
}

TEST(DGraph, ReplicaMaskConsistentAcrossReplicas) {
  const Graph g = gen::rmat(8, 6, 0.55, 0.2, 0.2, 5);
  const machine_t p = 8;
  const auto dg = make_dg(g, p);
  std::vector<std::uint64_t> mask(g.num_vertices(), 0);
  for (machine_t m = 0; m < p; ++m) {
    const Part& part = dg.part(m);
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      if (mask[part.gids[v]] == 0) {
        mask[part.gids[v]] = part.replica_mask[v];
      } else {
        EXPECT_EQ(mask[part.gids[v]], part.replica_mask[v]);
      }
      EXPECT_TRUE(part.replica_mask[v] >> m & 1) << "self not in mask";
    }
  }
}

TEST(DGraph, RoutingTablesMatchMasks) {
  const Graph g = gen::rmat(8, 6, 0.55, 0.2, 0.2, 5);
  const machine_t p = 8;
  const auto dg = make_dg(g, p);
  for (machine_t m = 0; m < p; ++m) {
    const Part& part = dg.part(m);
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      const auto& remotes = part.remote_replicas[v];
      EXPECT_EQ(remotes.size() + 1, part.num_replicas(v));
      for (const auto& [r, rl] : remotes) {
        EXPECT_NE(r, m);
        EXPECT_EQ(dg.part(r).gids[rl], part.gids[v]);
      }
    }
  }
}

TEST(DGraph, IsolatedVerticesGetOneReplica) {
  const Graph g(6, {{0, 1, 1}});
  const auto dg = make_dg(g, 4, CutKind::kRandom);
  for (vid_t v = 2; v < 6; ++v) {
    const machine_t m = dg.master_of(v);
    const Part& part = dg.part(m);
    const lvid_t lv = dg.master_lvid_of(v);
    EXPECT_EQ(part.gids[lv], v);
    EXPECT_EQ(part.num_replicas(lv), 1u);
  }
}

TEST(DGraph, GlobalDegreesMatchUserView) {
  const Graph g = gen::rmat(8, 5, 0.5, 0.2, 0.2, 11);
  const auto dg = make_dg(g, 6);
  const auto out = g.out_degrees();
  const auto tot = g.total_degrees();
  for (machine_t m = 0; m < 6; ++m) {
    const Part& part = dg.part(m);
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      EXPECT_EQ(part.global_out_degree[v], out[part.gids[v]]);
      EXPECT_EQ(part.global_total_degree[v], tot[part.gids[v]]);
    }
  }
}

TEST(DGraph, LocalInDegreesSumToLocalEdges) {
  const Graph g = gen::erdos_renyi(300, 2000, 17);
  const auto dg = make_dg(g, 8);
  for (machine_t m = 0; m < 8; ++m) {
    const Part& part = dg.part(m);
    std::uint64_t in_total = 0;
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      in_total += part.local_in_degree[v];
    }
    EXPECT_EQ(in_total, part.num_local_edges());
  }
}

TEST(DGraph, ReplicationFactorMatchesAssignmentWithoutSplits) {
  const Graph g = gen::rmat(9, 6, 0.55, 0.2, 0.2, 3);
  const machine_t p = 16;
  const auto a = assign_edges(g, p, {CutKind::kCoordinated, 7});
  const auto dg = DistributedGraph::build(g, p, a);
  EXPECT_NEAR(dg.replication_factor(), replication_factor(g, a, p), 1e-12);
  EXPECT_EQ(dg.parallel_edge_copies(), 0u);
}

TEST(DGraph, SplitEdgesCopiedToAllDestinationReplicas) {
  const Graph g = gen::rmat(8, 8, 0.57, 0.19, 0.19, 3);
  const machine_t p = 8;
  const auto a = assign_edges(g, p, {CutKind::kCoordinated, 7});
  // Split the first 10 edges.
  std::vector<std::uint64_t> split;
  for (std::uint64_t i = 0; i < 10; ++i) split.push_back(i);
  const auto dg = DistributedGraph::build(g, p, a, split);

  for (const std::uint64_t i : split) {
    const Edge& e = g.edges()[i];
    // The destination's replica set (pre-split) hosts one copy each.
    std::uint64_t copies = 0;
    for (machine_t m = 0; m < p; ++m) {
      const Part& part = dg.part(m);
      const auto it = part.g2l.find(e.src);
      if (it == part.g2l.end()) continue;
      const lvid_t lv = it->second;
      for (std::uint64_t le = part.offsets[lv]; le < part.offsets[lv + 1];
           ++le) {
        if (part.gids[part.targets[le]] == e.dst && part.parallel_mode[le]) {
          ++copies;
          // Dispatch rule: destination must have a replica here.
          EXPECT_TRUE(part.g2l.count(e.dst));
        }
      }
    }
    EXPECT_GE(copies, 1u) << "split edge " << i << " lost";
  }
  EXPECT_EQ(dg.total_local_edges(),
            g.num_edges() + dg.parallel_edge_copies());
}

TEST(DGraph, SplitEdgesCreateSourceReplicas) {
  // Star: hub 0 -> leaves. Splitting edge 0->leaf puts a copy of 0 at every
  // machine holding a replica of the leaf.
  const Graph g = gen::star(64, false);
  const machine_t p = 8;
  const auto a = assign_edges(g, p, {CutKind::kRandom, 3});
  const std::vector<std::uint64_t> split = {0};
  const auto dg = DistributedGraph::build(g, p, a, split);
  const Edge& e = g.edges()[0];
  for (machine_t m = 0; m < p; ++m) {
    const Part& part = dg.part(m);
    if (part.g2l.count(e.dst)) {
      EXPECT_TRUE(part.g2l.count(e.src))
          << "source replica missing on machine " << m;
    }
  }
}

// The lazy-block interval model reads its E/V ratio from the distributed
// graph's user view; it must equal the input graph's own ratio bit for bit,
// with or without parallel-edge copies.
TEST(DGraph, UserEvRatioEqualsGraphRatio) {
  const Graph graphs[] = {gen::rmat(9, 8, 0.57, 0.19, 0.19, 3),
                          gen::erdos_renyi(300, 1500, 5, {1.0f, 9.0f}),
                          gen::road_lattice(20, 20, 0.3, 5, {1.0f, 7.0f})};
  int builds_with_copies = 0;
  for (const Graph& g : graphs) {
    for (const CutKind kind : {CutKind::kCoordinated, CutKind::kRandom,
                               CutKind::kHybrid}) {
      for (const bool split : {false, true}) {
        const machine_t p = 16;
        std::vector<std::uint64_t> split_edges;
        if (split) {
          EdgeSplitterOptions opts;
          opts.t_extra = 0.001;
          split_edges = select_split_edges(g, p, opts);
        }
        const auto dg = DistributedGraph::build(
            g, p, assign_edges(g, p, {kind, 7}), split_edges);
        EXPECT_EQ(dg.user_ev_ratio(), g.edge_vertex_ratio())
            << "cut " << static_cast<int>(kind) << " split " << split
            << " copies " << dg.parallel_edge_copies();
        builds_with_copies += dg.parallel_edge_copies() > 0;
      }
    }
  }
  EXPECT_GT(builds_with_copies, 0);
}

TEST(DGraph, RejectsBadInputs) {
  const Graph g = gen::erdos_renyi(10, 20, 1);
  Assignment a = assign_edges(g, 4, {});
  a.edge_machine.pop_back();
  EXPECT_THROW(DistributedGraph::build(g, 4, a), std::invalid_argument);
  const Assignment good = assign_edges(g, 4, {});
  const std::vector<std::uint64_t> bad_split = {9999};
  EXPECT_THROW(DistributedGraph::build(g, 4, good, bad_split),
               std::invalid_argument);
}

}  // namespace
}  // namespace lazygraph::partition
