// Golden values for the serial push sweeps. Sync PageRank, lazy-block
// PageRank on an edge-split graph, and four programs on small random graphs
// under sync and lazy-block are pinned to the results of the earlier
// chunk-parallel sweeps, whose adaptive rule folded the dense supersteps of
// every PageRank and components run here through a pull over an in-edge
// mirror and the rest through a staged push merge. Both folded every target's
// messages in serial emission order (vertex ascending, then out-edge order),
// which is the order the serial sweeps deposit in; any change to that fold
// order changes the floating-point sums and fails these tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "lazygraph.hpp"
#include "test_support.hpp"

namespace lazygraph {
namespace {

struct Golden {
  std::uint64_t digest;
  std::uint64_t supersteps;
  std::uint64_t applies;
  std::uint64_t edge_traversals;
  std::uint64_t sweep_scanned;
  double sim_seconds;
};

/// FNV-1a over the bytes of every field folded in.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  template <class T>
  void fold(const T& x) {
    static_assert(sizeof x <= sizeof(std::uint64_t));
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof x);
    for (std::size_t i = 0; i < sizeof x; ++i) {
      h ^= (b >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

void fold(Fnv& f, const algos::PageRankDelta::VData& v) {
  f.fold(v.rank);
  f.fold(v.pending_delta);
}
void fold(Fnv& f, const algos::SSSP::VData& v) { f.fold(v.dist); }
void fold(Fnv& f, const algos::KCore::VData& v) {
  f.fold(v.core);
  f.fold(v.deleted);
}
void fold(Fnv& f, const algos::ConnectedComponents::VData& v) {
  f.fold(v.label);
}

/// Digest of every vertex's state, in vertex order.
template <class VData>
std::uint64_t digest(const std::vector<VData>& data) {
  Fnv f;
  for (const auto& v : data) fold(f, v);
  return f.h;
}

/// Runs PageRank on `kind` at cluster threads 1 and 4 and checks both runs
/// against `want`, bit for bit.
void expect_golden(engine::EngineKind kind, bool split, const Golden& want) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05);
  const auto dg = testsupport::build_dgraph(
      g, 4, partition::CutKind::kCoordinated, 7, split);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("cluster threads " + std::to_string(threads));
    sim::Cluster cluster({.machines = 4, .threads = threads});
    const auto r = engine::run({.kind = kind}, dg,
                               algos::PageRankDelta{.tol = 1e-3}, cluster);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(digest(r.data), want.digest);
    EXPECT_EQ(r.supersteps, want.supersteps);
    EXPECT_EQ(r.metrics.applies, want.applies);
    EXPECT_EQ(r.metrics.edge_traversals, want.edge_traversals);
    EXPECT_EQ(r.metrics.sweep_scanned, want.sweep_scanned);
    EXPECT_EQ(r.metrics.sim_seconds(), want.sim_seconds);
    EXPECT_EQ(r.metrics.sweep_pull_rounds, 0u);
    EXPECT_EQ(r.metrics.sweep_edges_pulled, 0u);
  }
}

TEST(SweepGolden, SyncPageRank) {
  expect_golden(engine::EngineKind::kSync, /*split=*/false,
                {.digest = 0x8f767361829edc7bULL,
                 .supersteps = 42,
                 .applies = 95967,
                 .edge_traversals = 1198001,
                 .sweep_scanned = 282405,
                 .sim_seconds = 0x1.ed77a43642e7ep+1});
}

TEST(SweepGolden, LazyBlockSplitPageRank) {
  expect_golden(engine::EngineKind::kLazyBlock, /*split=*/true,
                {.digest = 0x5f8b7dbd2df7553eULL,
                 .supersteps = 22,
                 .applies = 270385,
                 .edge_traversals = 742484,
                 .sweep_scanned = 1156526,
                 .sim_seconds = 0x1.eea030128898cp-1});
}

// ------------------------------------------------- programs × engines cells

struct CellGolden {
  std::uint64_t digest;
  std::uint64_t supersteps;
  std::uint64_t network_bytes;
  double sim_seconds;
};

/// Golden values of one engine on the directed cell (SSSP, PageRank) and the
/// symmetrized cell (k-core, components).
struct MatrixGolden {
  CellGolden sssp, pagerank, kcore, cc;
};

template <class P>
void expect_cell(const partition::DistributedGraph& dg, const P& prog,
                 engine::EngineKind kind, const CellGolden& want,
                 const std::string& tag) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(tag + " cluster threads " + std::to_string(threads));
    sim::Cluster cluster({.machines = 4, .threads = threads});
    const auto r = engine::run({.kind = kind}, dg, prog, cluster);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(digest(r.data), want.digest);
    EXPECT_EQ(r.supersteps, want.supersteps);
    EXPECT_EQ(r.metrics.network_bytes, want.network_bytes);
    EXPECT_EQ(r.metrics.sim_seconds(), want.sim_seconds);
    EXPECT_EQ(r.metrics.sweep_pull_rounds, 0u);
  }
}

void expect_matrix(engine::EngineKind kind, const MatrixGolden& want) {
  const Graph gd = gen::erdos_renyi(220, 1100, 19, {1.0f, 5.0f});
  const Graph gu = gen::erdos_renyi(200, 700, 23).symmetrized();
  const auto dgd = testsupport::build_dgraph(gd, 4);
  const auto dgu = testsupport::build_dgraph(gu, 4);
  expect_cell(dgd, algos::SSSP{.source = 0}, kind, want.sssp, "sssp");
  expect_cell(dgd, algos::PageRankDelta{}, kind, want.pagerank, "pagerank");
  expect_cell(dgu, algos::KCore{.k = 3}, kind, want.kcore, "kcore");
  expect_cell(dgu, algos::ConnectedComponents{}, kind, want.cc, "cc");
}

TEST(SweepGoldenMatrix, SyncUnsplit) {
  expect_matrix(engine::EngineKind::kSync,
                {.sssp = {0xa9703318768c5bb8ULL, 1, 58, 0x1.74bcbf5522713p-4},
                 .pagerank = {0x136d2d38578b3511ULL, 33, 233752,
                              0x1.808c3df70f965p+1},
                 .kcore = {0xef362bf0a3720815ULL, 2, 7069,
                           0x1.74d4750e37d13p-3},
                 .cc = {0x14d5bceae7b5b1a5ULL, 5, 14214,
                        0x1.d233834d239f3p-2}});
}

TEST(SweepGoldenMatrix, LazyBlockUnsplit) {
  expect_matrix(engine::EngineKind::kLazyBlock,
                {.sssp = {0xa9703318768c5bb8ULL, 2, 0, 0x1.0628382d6df75p-9},
                 .pagerank = {0x6d383d3b7f8212e0ULL, 23, 88302,
                              0x1.fbd79b3d0cd0bp-1},
                 .kcore = {0xef362bf0a3720815ULL, 3, 67,
                           0x1.8120d1129f3efp-5},
                 .cc = {0x14d5bceae7b5b1a5ULL, 4, 10488,
                        0x1.16d3df250ead3p-3}});
}

}  // namespace
}  // namespace lazygraph
