// Bit-equality tests for the parallel setup path (DESIGN.md §5f): every
// ingest / partition / analysis / build stage must produce byte-identical
// output at any thread count, plus the chunk-boundary property tests for the
// parallel edge-list parser and the artifact-cache behavior tests.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "partition/artifact_cache.hpp"
#include "partition/dgraph.hpp"
#include "partition/edge_splitter.hpp"
#include "partition/partitioner.hpp"
#include "util/rng.hpp"

namespace lazygraph {
namespace {

using partition::assign_edges;
using partition::Assignment;
using partition::CutKind;
using partition::DistributedGraph;
using partition::PartitionOptions;

const std::vector<std::size_t> kThreadCounts = {1, 2, 7};

Graph skewed_graph() { return gen::rmat(10, 12, 0.55, 0.2, 0.2, 21); }

// --- cut bit-equality at every thread count ---

class CutThreadEquality : public ::testing::TestWithParam<CutKind> {};

TEST_P(CutThreadEquality, AssignmentIdenticalAcrossThreadCounts) {
  const Graph g = skewed_graph();
  for (const machine_t machines : {3, 16, 48}) {
    PartitionOptions opts;
    opts.kind = GetParam();
    opts.seed = 5;
    const Assignment serial = assign_edges(g, machines, opts);
    for (const std::size_t t : kThreadCounts) {
      opts.threads = t;
      const Assignment parallel = assign_edges(g, machines, opts);
      ASSERT_EQ(serial.edge_machine, parallel.edge_machine)
          << to_string(GetParam()) << " machines=" << machines
          << " threads=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCuts, CutThreadEquality,
                         ::testing::Values(CutKind::kRandom, CutKind::kGrid,
                                           CutKind::kCoordinated,
                                           CutKind::kOblivious,
                                           CutKind::kHybrid),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// --- analysis bit-equality ---

TEST(AnalysisThreadEquality, ReplicationFactorAndLoads) {
  const Graph g = skewed_graph();
  const Assignment a =
      assign_edges(g, 48, {.kind = CutKind::kCoordinated, .seed = 5});
  const double lambda1 = partition::replication_factor(g, a, 48, 1);
  const auto loads1 = partition::machine_loads(a, 48, 1);
  for (const std::size_t t : kThreadCounts) {
    EXPECT_EQ(lambda1, partition::replication_factor(g, a, 48, t));
    EXPECT_EQ(loads1, partition::machine_loads(a, 48, t));
  }
}

TEST(AnalysisThreadEquality, DegreeHistograms) {
  for (const std::size_t t : kThreadCounts) {
    // Fresh graphs per thread count: the accessors cache, so reusing one
    // instance would only exercise the first computation.
    const Graph serial = skewed_graph();
    const Graph parallel = skewed_graph();
    EXPECT_EQ(serial.out_degrees(1), parallel.out_degrees(t));
    EXPECT_EQ(serial.in_degrees(1), parallel.in_degrees(t));
    EXPECT_EQ(serial.total_degrees(1), parallel.total_degrees(t));
  }
}

// --- distributed-graph build bit-equality ---

void expect_parts_equal(const DistributedGraph& a, const DistributedGraph& b,
                        std::size_t threads) {
  ASSERT_EQ(a.num_machines(), b.num_machines()) << "threads=" << threads;
  EXPECT_EQ(a.replication_factor(), b.replication_factor());
  EXPECT_EQ(a.parallel_edge_copies(), b.parallel_edge_copies());
  for (vid_t v = 0; v < a.num_global_vertices(); ++v) {
    ASSERT_EQ(a.master_of(v), b.master_of(v)) << "v=" << v;
    ASSERT_EQ(a.master_lvid_of(v), b.master_lvid_of(v)) << "v=" << v;
  }
  for (machine_t m = 0; m < a.num_machines(); ++m) {
    const partition::Part& pa = a.part(m);
    const partition::Part& pb = b.part(m);
    ASSERT_EQ(pa.gids, pb.gids) << "m=" << m << " threads=" << threads;
    EXPECT_EQ(pa.replica_mask, pb.replica_mask);
    EXPECT_EQ(pa.master, pb.master);
    EXPECT_EQ(pa.master_lvid, pb.master_lvid);
    EXPECT_EQ(pa.global_out_degree, pb.global_out_degree);
    EXPECT_EQ(pa.global_total_degree, pb.global_total_degree);
    EXPECT_EQ(pa.local_in_degree, pb.local_in_degree);
    EXPECT_EQ(pa.remote_replicas, pb.remote_replicas);
    EXPECT_EQ(pa.offsets, pb.offsets);
    EXPECT_EQ(pa.targets, pb.targets);
    EXPECT_EQ(pa.weights, pb.weights);
    EXPECT_EQ(pa.parallel_mode, pb.parallel_mode);
  }
}

TEST(BuildThreadEquality, PlainBuildIdenticalAcrossThreadCounts) {
  const Graph g = skewed_graph();
  const Assignment a =
      assign_edges(g, 16, {.kind = CutKind::kCoordinated, .seed = 5});
  const DistributedGraph serial = DistributedGraph::build(g, 16, a);
  for (const std::size_t t : kThreadCounts) {
    expect_parts_equal(serial, DistributedGraph::build(g, 16, a, {}, t), t);
  }
}

TEST(BuildThreadEquality, SplitBuildIdenticalAcrossThreadCounts) {
  const Graph g = skewed_graph();
  const Assignment a =
      assign_edges(g, 16, {.kind = CutKind::kHybrid, .seed = 5});
  // Split a deterministic slice of edges, including some hub destinations.
  std::vector<std::uint64_t> split;
  for (std::uint64_t i = 0; i < g.num_edges(); i += 97) split.push_back(i);
  const DistributedGraph serial = DistributedGraph::build(g, 16, a, split);
  for (const std::size_t t : kThreadCounts) {
    expect_parts_equal(serial, DistributedGraph::build(g, 16, a, split, t),
                       t);
  }
}

// --- pinned setup outputs ---
//
// Golden values for the setup outputs themselves. Edge order is part of a
// graph's identity (content_hash is order-dependent), so these pins hold
// every dedupe accept/reject decision and the local CSR layout to the bit,
// whatever set or sort produces them.

struct Table1Pin {
  const char* name;
  std::uint64_t edges;
  std::uint64_t hash;
  std::uint64_t sym_edges;
  std::uint64_t sym_hash;
};

void PrintTo(const Table1Pin& pin, std::ostream* os) { *os << pin.name; }

class Table1ContentPin : public ::testing::TestWithParam<Table1Pin> {};

TEST_P(Table1ContentPin, PlainAndSymmetrizedAtScaleOne) {
  const Table1Pin& pin = GetParam();
  const Graph g = datasets::make(datasets::spec_by_name(pin.name), 1.0);
  const Graph sym = g.symmetrized();
  EXPECT_EQ(g.num_edges(), pin.edges);
  EXPECT_EQ(g.content_hash(), pin.hash);
  EXPECT_EQ(sym.num_edges(), pin.sym_edges);
  EXPECT_EQ(sym.content_hash(), pin.sym_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, Table1ContentPin,
    ::testing::Values(
        Table1Pin{"uk2005-like", 1423800, 3514077528474665094u,
                  1965434, 7509532861593248613u},
        Table1Pin{"webgoogle-like", 524700, 3955562748878267571u,
                  965008, 9868731826352070619u},
        Table1Pin{"roadusa-like", 110282, 17150646949133029785u,
                  110282, 17150646949133029785u},
        Table1Pin{"roadnetca-like", 52000, 3129234064715819889u,
                  52000, 3129234064715819889u},
        Table1Pin{"twitter-like", 1563469, 9517779919690397564u,
                  3110058, 1139102046843788035u},
        Table1Pin{"livejournal-like", 996100, 6921268908641457389u,
                  1961088, 12666426188101923309u},
        Table1Pin{"enwiki-like", 1204500, 18366133392683772611u,
                  2391052, 2917293212272187365u},
        Table1Pin{"youtube-like", 527000, 11411439352775308590u,
                  1030588, 3910491749708181286u}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SimplifiedPin, DuplicateHeavyRmat) {
  // a = 0.7 concentrates draws in the top-left quadrant, so most raw draws
  // repeat an earlier (src, dst) pair and simplified() drops them.
  const vid_t scale = 11;
  const std::uint64_t epv = 32;
  const Graph g = gen::rmat(scale, epv, 0.7, 0.1, 0.1, 17);
  EXPECT_LT(g.num_edges(), (std::uint64_t{1} << scale) * epv / 2);
  EXPECT_EQ(g.num_edges(), 29148u);
  EXPECT_EQ(g.content_hash(), 1006867694659984838u);
  // simplified() of an already simple graph is the identity.
  EXPECT_EQ(g.simplified().content_hash(), g.content_hash());
}

std::uint64_t fold(std::uint64_t h, std::uint64_t x) { return mix64(h ^ x); }

template <class T>
std::uint64_t fold_vec(std::uint64_t h, const std::vector<T>& v) {
  h = fold(h, v.size());
  for (const T& x : v) {
    if constexpr (std::is_same_v<T, float>) {
      h = fold(h, std::bit_cast<std::uint32_t>(x));
    } else {
      h = fold(h, static_cast<std::uint64_t>(x));
    }
  }
  return h;
}

// Field digest of every Part: gids, CSR, parallel mode, local in-degrees,
// master lvids and replica routing tables.
std::uint64_t dgraph_digest(const DistributedGraph& dg) {
  std::uint64_t h = fold(0x64677261u, dg.num_machines());
  for (const partition::Part& p : dg.parts()) {
    h = fold_vec(h, p.gids);
    h = fold_vec(h, p.offsets);
    h = fold_vec(h, p.targets);
    h = fold_vec(h, p.weights);
    h = fold_vec(h, p.parallel_mode);
    h = fold_vec(h, p.local_in_degree);
    h = fold_vec(h, p.master_lvid);
    h = fold(h, p.remote_replicas.size());
    for (const auto& rr : p.remote_replicas) {
      h = fold(h, rr.size());
      for (const auto& [m, lv] : rr) {
        h = fold(h, static_cast<std::uint64_t>(m) << 32 | lv);
      }
    }
  }
  return h;
}

const Graph& livejournal_quarter() {
  static const Graph g =
      datasets::make(datasets::spec_by_name("livejournal-like"), 0.25);
  return g;
}

void expect_build_digest(const Graph& g, std::span<const std::uint64_t> split,
                         std::uint64_t want) {
  const Assignment a =
      assign_edges(g, 16, {.kind = CutKind::kCoordinated, .seed = 5});
  for (const std::size_t t : {1, 4}) {
    EXPECT_EQ(dgraph_digest(DistributedGraph::build(g, 16, a, split, t)),
              want)
        << "threads=" << t;
  }
}

TEST(BuildDigestPin, LivejournalPlain) {
  expect_build_digest(livejournal_quarter(), {}, 4617958154020442486u);
}

TEST(BuildDigestPin, LivejournalSymmetrized) {
  expect_build_digest(livejournal_quarter().symmetrized(), {},
                      11509566773811669434u);
}

TEST(BuildDigestPin, LivejournalSplit) {
  const Graph& g = livejournal_quarter();
  const std::vector<std::uint64_t> split =
      partition::select_split_edges(g, 16, {});
  ASSERT_FALSE(split.empty());
  expect_build_digest(g, split, 10741405154812404203u);
}

// --- parallel edge-list reader ---

std::string edge_text(const Graph& g) {
  std::ostringstream os;
  io::write_edge_list(g, os);
  return os.str();
}

void expect_graphs_equal(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    ASSERT_EQ(a.edges()[i].src, b.edges()[i].src) << "i=" << i;
    ASSERT_EQ(a.edges()[i].dst, b.edges()[i].dst) << "i=" << i;
    ASSERT_EQ(a.edges()[i].weight, b.edges()[i].weight) << "i=" << i;
  }
}

TEST(ParallelRead, IdenticalAcrossThreadCounts) {
  const std::string text = edge_text(skewed_graph());
  const Graph serial = io::read_edge_list_text(text, {.threads = 1});
  for (const std::size_t t : kThreadCounts) {
    expect_graphs_equal(serial, io::read_edge_list_text(text, {.threads = t}));
  }
}

TEST(ParallelRead, MessyInputIdenticalAcrossThreadCounts) {
  // Comments, blank lines, \r\n endings, missing weights, extra whitespace.
  const std::string text =
      "# header comment\n"
      "0 1 2.5\n"
      "\n"
      "1 2\r\n"
      "  3   4   0.25   trailing junk\n"
      "# interior comment\n"
      "4 0 7\n"
      "2 3\n"
      "5 5 1e-3\n";
  const Graph serial = io::read_edge_list_text(text, {.threads = 1});
  ASSERT_EQ(serial.num_edges(), 6u);
  EXPECT_EQ(serial.edges()[1].weight, 1.0f);  // missing weight defaults
  for (const std::size_t t : kThreadCounts) {
    expect_graphs_equal(serial, io::read_edge_list_text(text, {.threads = t}));
  }
}

// Property: for ANY chunk decomposition, boundary snapping never drops,
// duplicates, or splits a line — even when boundaries land inside comments,
// blank runs, or lines without weights.
TEST(ParallelRead, ChunkBoundaryPropertySweep) {
  std::string text;
  for (int i = 0; i < 40; ++i) {
    if (i % 7 == 0) text += "# comment line " + std::to_string(i) + "\n";
    if (i % 5 == 0) text += "\n";
    text += std::to_string(i) + " " + std::to_string((i * 13) % 40);
    if (i % 3 != 0) text += " " + std::to_string(i) + ".5";
    text += "\n";
  }
  const Graph serial = io::read_edge_list_text(text, {.threads = 1});
  ASSERT_EQ(serial.num_edges(), 40u);
  for (std::size_t t = 1; t <= 9; ++t) {
    expect_graphs_equal(serial, io::read_edge_list_text(text, {.threads = t}));
  }
  // A final line without a trailing newline must also survive any split.
  const std::string no_trailing = text + "99 0";
  const Graph serial2 = io::read_edge_list_text(no_trailing, {.threads = 1});
  ASSERT_EQ(serial2.num_edges(), 41u);
  for (std::size_t t = 1; t <= 9; ++t) {
    expect_graphs_equal(
        serial2, io::read_edge_list_text(no_trailing, {.threads = t}));
  }
}

TEST(ParallelRead, FirstMalformedLineReportedAtAnyThreadCount) {
  // Two malformed lines; the reported error must always be the first one,
  // regardless of which chunk each lands in.
  std::string text;
  for (int i = 0; i < 20; ++i) {
    text += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  }
  text += "bogus first\n";
  for (int i = 0; i < 20; ++i) text += "5 6\n";
  text += "bogus second\n";
  for (std::size_t t = 1; t <= 8; ++t) {
    try {
      io::read_edge_list_text(text, {.threads = t});
      FAIL() << "expected malformed-line error at threads=" << t;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bogus first"), std::string::npos)
          << "threads=" << t << " got: " << e.what();
    }
  }
}

TEST(ParallelRead, StreamAndFileAgreeWithText) {
  const std::string text = "0 1\n1 2 0.5\n2 0\n";
  std::istringstream is(text);
  const Graph from_stream = io::read_edge_list(is, {.threads = 4});
  expect_graphs_equal(io::read_edge_list_text(text, {.threads = 1}),
                      from_stream);
}

// --- content hash & artifact cache ---

TEST(ContentHash, SensitiveToEdgesWeightsAndShape) {
  const Graph a(3, {{0, 1, 1.0f}, {1, 2, 1.0f}});
  const Graph same(3, {{0, 1, 1.0f}, {1, 2, 1.0f}});
  const Graph weight(3, {{0, 1, 2.0f}, {1, 2, 1.0f}});
  const Graph endpoint(3, {{0, 2, 1.0f}, {1, 2, 1.0f}});
  const Graph vertices(4, {{0, 1, 1.0f}, {1, 2, 1.0f}});
  EXPECT_EQ(a.content_hash(), same.content_hash());
  EXPECT_NE(a.content_hash(), weight.content_hash());
  EXPECT_NE(a.content_hash(), endpoint.content_hash());
  EXPECT_NE(a.content_hash(), vertices.content_hash());
}

TEST(ArtifactCache, HitsOnRepeatAndContentKeying) {
  partition::ArtifactCache cache;
  const Graph g = skewed_graph();
  const PartitionOptions opts{.kind = CutKind::kHybrid, .seed = 3};

  const auto a1 = cache.assignment(g, 8, opts);
  const auto a2 = cache.assignment(g, 8, opts);
  EXPECT_EQ(a1.get(), a2.get());  // same artifact, not a copy
  EXPECT_EQ(cache.stats().assignment_hits, 1u);
  EXPECT_EQ(cache.stats().assignment_misses, 1u);

  // An independently built but identical graph hits (content keying)...
  const Graph twin = skewed_graph();
  const auto a3 = cache.assignment(twin, 8, opts);
  EXPECT_EQ(a1.get(), a3.get());
  EXPECT_EQ(cache.stats().assignment_hits, 2u);

  // ...while any config difference misses.
  cache.assignment(g, 9, opts);
  PartitionOptions other = opts;
  other.seed = 4;
  cache.assignment(g, 8, other);
  EXPECT_EQ(cache.stats().assignment_misses, 3u);

  // Thread count is an execution knob, never a key component.
  PartitionOptions threaded = opts;
  threaded.threads = 7;
  const auto a4 = cache.assignment(g, 8, threaded);
  EXPECT_EQ(a1.get(), a4.get());
}

TEST(ArtifactCache, DgraphReusesCachedAssignment) {
  partition::ArtifactCache cache;
  const Graph g = skewed_graph();
  const PartitionOptions opts{.kind = CutKind::kCoordinated, .seed = 3};

  const auto d1 = cache.dgraph(g, 8, opts);
  EXPECT_EQ(cache.stats().assignment_misses, 1u);
  EXPECT_EQ(cache.stats().dgraph_misses, 1u);

  const auto d2 = cache.dgraph(g, 8, opts);
  EXPECT_EQ(d1.get(), d2.get());
  EXPECT_EQ(cache.stats().dgraph_hits, 1u);
  // A dgraph hit must not even consult the assignment cache.
  EXPECT_EQ(cache.stats().assignment_hits, 0u);

  // A split build is a distinct artifact but shares the assignment.
  partition::EdgeSplitterOptions split;
  split.t_extra = 0.001;
  const auto d3 = cache.dgraph(g, 8, opts, split);
  EXPECT_NE(d1.get(), d3.get());
  EXPECT_EQ(cache.stats().dgraph_misses, 2u);
  EXPECT_EQ(cache.stats().assignment_hits, 1u);

  // Disabled splitting (either flag) aliases the plain build.
  split.enabled = false;
  EXPECT_EQ(cache.dgraph(g, 8, opts, split).get(), d1.get());
  EXPECT_EQ(
      cache.dgraph(g, 8, opts, {.enabled = true, .t_extra = 0.0}).get(),
      d1.get());

  EXPECT_GE(cache.stats().build_seconds, 0.0);
  EXPECT_GE(cache.stats().partition_seconds, 0.0);
}

TEST(ArtifactCache, ClearResetsEverything) {
  partition::ArtifactCache cache;
  const Graph g(3, {{0, 1, 1.0f}, {1, 2, 1.0f}});
  cache.dgraph(g, 2, {.kind = CutKind::kRandom});
  cache.clear();
  EXPECT_EQ(cache.stats().hits(), 0u);
  EXPECT_EQ(cache.stats().misses(), 0u);
  cache.dgraph(g, 2, {.kind = CutKind::kRandom});
  EXPECT_EQ(cache.stats().dgraph_misses, 1u);  // recomputed after clear
}

}  // namespace
}  // namespace lazygraph
