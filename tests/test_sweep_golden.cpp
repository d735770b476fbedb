// Golden values for the serial push sweeps. Sync PageRank, lazy-block
// PageRank on an edge-split graph, and four programs on small random graphs
// under sync and lazy-block are pinned to the results of the earlier
// chunk-parallel sweeps, whose adaptive rule folded the dense supersteps of
// every PageRank and components run here through a pull over an in-edge
// mirror and the rest through a staged push merge. Both folded every target's
// messages in serial emission order (vertex ascending, then out-edge order),
// which is the order the serial sweeps deposit in; any change to that fold
// order changes the floating-point sums and fails these tests.
//
// The ExchangeGolden tests at the end pin lazy-block's coherency exchange
// (Stage 2) under each comm-mode policy to the results of the exchange that
// sorted per-master worklists and re-walked every replica to size its mode
// estimate; the two batched-lane cells are pinned to the exchange whose
// coordinators delivered into other machines' message slots. Any change in
// visit order, estimate, wire-codec stream or delivery fold shows up in the
// mode counts, byte/message tallies or digest.
//
// The EngineGolden tests pin the async rounds and lazy-vertex runs to the
// worklists that sorted per-master lists (and, for async, merged in-round
// activations through a min-heap); a changed visit order or flush order
// shows up in the digest, applies, scan work or message tallies.
#include <gtest/gtest.h>

#include <array>
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
void fold(Fnv& f, const algos::LinearDiffusion::VData& v) {
  f.fold(v.value);
  f.fold(v.pending_delta);
}
/// A batched program's vertex: its lanes in lane order.
template <class VData, std::size_t K>
void fold(Fnv& f, const std::array<VData, K>& lanes) {
  for (const VData& v : lanes) fold(f, v);
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

// Lazy-block SSSP on a 32x32 road lattice: Stage 1 runs a few hundred sparse
// Gauss-Seidel sub-sweeps, three of which cross the density threshold
// mid-sweep, next to whole dense sub-sweeps. Pinned to the min-heap sparse
// sweep that the has_msg word walk replaced; the walk must visit the same
// vertices in the same order and tally the same scan work.
TEST(SweepGolden, LazyBlockRoadSssp) {
  const Graph g = gen::road_lattice(32, 32, 0.3, 2018, {1.0f, 64.0f});
  const auto dg = testsupport::build_dgraph(g, 4);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("cluster threads " + std::to_string(threads));
    sim::Cluster cluster({.machines = 4, .threads = threads});
    const auto r = engine::run({.kind = engine::EngineKind::kLazyBlock}, dg,
                               algos::SSSP{.source = 0}, cluster);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(digest(r.data), 0x73da1517c38968b1ULL);
    EXPECT_EQ(r.supersteps, 20u);
    EXPECT_EQ(r.metrics.applies, 3936u);
    EXPECT_EQ(r.metrics.local_subiterations, 281u);
    EXPECT_EQ(r.metrics.sweep_scanned, 19957u);
    EXPECT_EQ(r.metrics.sim_seconds(), 0x1.8995ed50847cdp-1);
  }
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

// ------------------------------------------------ coherency exchange (Stage 2)

struct ExchangeGolden {
  std::uint64_t digest;
  std::uint64_t supersteps;
  std::uint64_t a2a_exchanges;
  std::uint64_t m2m_exchanges;
  std::uint64_t network_bytes;
  std::uint64_t exchange_bytes_raw;
  std::uint64_t exchange_bytes_wire;
  std::uint64_t network_messages;
  std::uint64_t sweep_scanned;
  double sim_seconds;
};

/// Golden values of one lazy-block run under each comm-mode policy.
struct PolicyGoldens {
  ExchangeGolden adaptive, all_to_all, mirrors_to_master;
};

/// Runs `prog` on lazy-block under the three comm-mode policies at cluster
/// threads 1 and 4 and checks every run against `want`, bit for bit. The
/// cluster's volume_scale stands each analogue record for 10^4 real ones, so
/// the fitted cost curves put early (large) exchanges on mirrors-to-master
/// and late (small) ones on all-to-all: the adaptive run records both.
template <class P>
void expect_exchange(const partition::DistributedGraph& dg, const P& prog,
                     const PolicyGoldens& want) {
  const std::pair<engine::CommModePolicy, const ExchangeGolden*> cells[] = {
      {engine::CommModePolicy::kAdaptive, &want.adaptive},
      {engine::CommModePolicy::kForceAllToAll, &want.all_to_all},
      {engine::CommModePolicy::kForceMirrorsToMaster,
       &want.mirrors_to_master}};
  for (const auto& [policy, w] : cells) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(engine::to_string(policy)) +
                   " cluster threads " + std::to_string(threads));
      sim::Cluster cluster({.machines = dg.num_machines(),
                            .net = {.volume_scale = 1e4},
                            .threads = threads});
      const auto r = engine::run(
          {.kind = engine::EngineKind::kLazyBlock, .comm_policy = policy}, dg,
          prog, cluster);
      ASSERT_TRUE(r.converged);
      const sim::SimMetrics& m = r.metrics;
      EXPECT_EQ(digest(r.data), w->digest);
      EXPECT_EQ(r.supersteps, w->supersteps);
      EXPECT_EQ(m.a2a_exchanges, w->a2a_exchanges);
      EXPECT_EQ(m.m2m_exchanges, w->m2m_exchanges);
      EXPECT_EQ(m.network_bytes, w->network_bytes);
      EXPECT_EQ(m.exchange_bytes_raw, w->exchange_bytes_raw);
      EXPECT_EQ(m.exchange_bytes_wire, w->exchange_bytes_wire);
      EXPECT_EQ(m.network_messages, w->network_messages);
      EXPECT_EQ(m.sweep_scanned, w->sweep_scanned);
      EXPECT_EQ(m.sim_seconds(), w->sim_seconds);
    }
  }
  EXPECT_GT(want.adaptive.a2a_exchanges, 0u);
  EXPECT_GT(want.adaptive.m2m_exchanges, 0u);
}

TEST(ExchangeGolden, LazyBlockSplitPageRank) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05);
  const auto dg = testsupport::build_dgraph(
      g, 4, partition::CutKind::kCoordinated, 7, /*split=*/true);
  expect_exchange(
      dg, algos::PageRankDelta{.tol = 1e-3},
      {.adaptive = {0x5f8b7dbd2df7553eULL, 22, 3, 19, 1160618, 2059520,
                    1160618, 128720, 1156526, 0x1.7c039522d268cp+4},
       .all_to_all = {0x5f8b7dbd2df7553eULL, 22, 22, 0, 1386600, 2461520,
                      1386600, 153845, 1156526, 0x1.c5b1985985d3ep+4},
       .mirrors_to_master = {0x5f8b7dbd2df7553eULL, 22, 0, 22, 1161081,
                             2060288, 1161081, 128768, 1156526,
                             0x1.7c2e2e794e79ap+4}});
}

TEST(ExchangeGolden, LazyBlockKCore) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05)
          .symmetrized();
  const auto dg = testsupport::build_dgraph(g, 4);
  expect_exchange(
      dg, algos::KCore{.k = 3},
      {.adaptive = {0x2ef3f95cc2b17b65ULL, 5, 4, 1, 5500, 9280, 5500, 580,
                    21665, 0x1.8a36e4b1e589ap-3},
       .all_to_all = {0x2ef3f95cc2b17b65ULL, 5, 5, 0, 4191, 7008, 4191, 438,
                      21665, 0x1.5395d9c1367ebp-3},
       .mirrors_to_master = {0x2ef3f95cc2b17b65ULL, 5, 0, 5, 5822, 9792,
                             5822, 612, 21665, 0x1.9b82d316a12f8p-3}});
}

// Lane-width exchanges: four lanes of a kHasInverse family batched into one
// run (serve::BatchedProgram), so every exchanged delta is a wide LaneMsg
// whose m2m delivery goes through the lane-wise Inverse.
TEST(ExchangeGolden, BatchedDiffusionLanes) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05);
  const auto dg = testsupport::build_dgraph(
      g, 4, partition::CutKind::kCoordinated, 7, /*split=*/true);
  serve::BatchedProgram<algos::LinearDiffusion, 4> prog;
  const vid_t seeds[] = {0, 101, 2002, 30003};
  for (std::size_t i = 0; i < 4; ++i) {
    prog.lanes[i] = {.alpha = 0.6, .seed = seeds[i], .tol = 1e-5};
  }
  expect_exchange(
      dg, prog,
      {.adaptive = {0xff70dafad4c5c3daULL, 19, 4, 15, 2353462, 2752944,
                    2353462, 57353, 592454, 0x1.7ff3d1f1ac47cp+5},
       .all_to_all = {0xff70dafad4c5c3daULL, 19, 19, 0, 2659343, 3111168,
                      2659343, 64816, 592454, 0x1.b1d1495882b51p+5},
       .mirrors_to_master = {0xff70dafad4c5c3daULL, 19, 0, 19, 2356406,
                             2756352, 2356406, 57424, 592454,
                             0x1.80658e46a5626p+5}});
}

TEST(ExchangeGolden, BatchedKcoreLanes) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05)
          .symmetrized();
  const auto dg = testsupport::build_dgraph(g, 4);
  serve::BatchedProgram<algos::KCore, 4> prog;
  for (std::uint32_t i = 0; i < 4; ++i) prog.lanes[i] = {.k = 2 + 2 * i};
  expect_exchange(
      dg, prog,
      {.adaptive = {0x94cc50938e51471dULL, 12, 3, 9, 952390, 1113648, 952390,
                    23201, 224080, 0x1.376afe224e46p+4},
       .all_to_all = {0x94cc50938e51471dULL, 12, 12, 0, 978665, 1144464,
                      978665, 23843, 224080, 0x1.3ffc15c20841bp+4},
       .mirrors_to_master = {0x94cc50938e51471dULL, 12, 0, 12, 952476,
                             1113744, 952476, 23203, 224080,
                             0x1.3779969df321bp+4}});
}

// ------------------------------------------------ async and lazy-vertex runs

struct EngineGolden {
  std::uint64_t digest;
  std::uint64_t supersteps;
  std::uint64_t applies;
  std::uint64_t sweep_scanned;
  std::uint64_t network_messages;
  std::uint64_t network_bytes;
  double sim_seconds;
};

/// Runs `prog` with `cfg` at cluster threads 1 and 4 and checks both runs
/// against `want`, bit for bit.
template <class P>
void expect_engine(const partition::DistributedGraph& dg, const P& prog,
                   const engine::RunConfig& cfg, const EngineGolden& want) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("cluster threads " + std::to_string(threads));
    sim::Cluster cluster({.machines = dg.num_machines(), .threads = threads});
    const auto r = engine::run(cfg, dg, prog, cluster);
    ASSERT_TRUE(r.converged);
    const sim::SimMetrics& m = r.metrics;
    EXPECT_EQ(digest(r.data), want.digest);
    EXPECT_EQ(r.supersteps, want.supersteps);
    EXPECT_EQ(m.applies, want.applies);
    EXPECT_EQ(m.sweep_scanned, want.sweep_scanned);
    EXPECT_EQ(m.network_messages, want.network_messages);
    EXPECT_EQ(m.network_bytes, want.network_bytes);
    EXPECT_EQ(m.sim_seconds(), want.sim_seconds);
  }
}

const engine::RunConfig kAsyncRun{.kind = engine::EngineKind::kAsync};

/// Staleness past any vertex's local apply count: replicas exchange deltas
/// only through the drain-cycle flushes, which every run below needs to
/// converge.
const engine::RunConfig kFlushOnly{.kind = engine::EngineKind::kLazyVertex,
                                   .staleness = 1000};

partition::DistributedGraph webgoogle(bool symmetric) {
  Graph g = datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05);
  if (symmetric) g = g.symmetrized();
  return testsupport::build_dgraph(g, 4);
}

// The async rounds' worklist (round-start activations plus in-round ones
// ahead of the (machine, lvid) cursor) decides the visit order and thus
// every fold; these pin it to the per-master sorted lists merged through a
// min-heap that the active-master bitset walk replaced.
TEST(EngineGolden, AsyncSssp) {
  expect_engine(webgoogle(false), algos::SSSP{.source = 0}, kAsyncRun,
                {0x6d21047d40273557ULL, 13, 19919, 72735, 54138, 592462,
                 0x1.d96fc2ad5372fp-4});
}

TEST(EngineGolden, AsyncBatchedDiffusionLanes) {
  serve::BatchedProgram<algos::LinearDiffusion, 4> prog;
  const vid_t seeds[] = {0, 101, 2002, 30003};
  for (std::size_t i = 0; i < 4; ++i) {
    prog.lanes[i] = {.alpha = 0.6, .seed = seeds[i], .tol = 1e-5};
  }
  expect_engine(webgoogle(false), prog, kAsyncRun,
                {0x442b4fc49c8f4972ULL, 11, 20628, 75761, 58128, 3192644,
                 0x1.0b4ead94bd79ep-3});
}

// Lazy-vertex runs whose drain-cycle flushes fire (SSSP and k-core cross the
// cut only through them; PageRank at the default staleness drains a dozen
// times too): pinned to the flush that collected per-master lists and
// sorted them, and to the byte-per-vertex queue membership.
TEST(EngineGolden, LazyVertexSssp) {
  expect_engine(webgoogle(false), algos::SSSP{.source = 0}, kFlushOnly,
                {0x6d21047d40273557ULL, 95, 72535, 65562, 43524, 475172,
                 0x1.84c3b1373661ap-4});
}

TEST(EngineGolden, LazyVertexKCore) {
  expect_engine(webgoogle(true), algos::KCore{.k = 3}, kFlushOnly,
                {0x2ef3f95cc2b17b65ULL, 13, 10960, 10559, 433, 4748,
                 0x1.3da8dd53c8d14p-10});
}

TEST(EngineGolden, LazyVertexPageRank) {
  expect_engine(webgoogle(false), algos::PageRankDelta{.tol = 1e-3},
                {.kind = engine::EngineKind::kLazyVertex},
                {0x86febad4fdb0d0c8ULL, 311, 481157, 90370, 222675, 2422335,
                 0x1.fe952e0b80502p-2});
}

}  // namespace
}  // namespace lazygraph
