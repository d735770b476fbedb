#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "util/rng.hpp"

namespace lazygraph::partition {
namespace {

// Parameterized over (cut kind, machine count): structural invariants every
// vertex-cut assignment must satisfy.
class CutInvariants
    : public ::testing::TestWithParam<std::tuple<CutKind, machine_t>> {};

TEST_P(CutInvariants, EveryEdgeAssignedToValidMachine) {
  const auto [kind, machines] = GetParam();
  const Graph g = gen::rmat(10, 6, 0.55, 0.2, 0.2, 3);
  const Assignment a = assign_edges(g, machines, {kind, 7});
  ASSERT_EQ(a.edge_machine.size(), g.num_edges());
  for (const machine_t m : a.edge_machine) EXPECT_LT(m, machines);
}

TEST_P(CutInvariants, DeterministicPerSeed) {
  const auto [kind, machines] = GetParam();
  const Graph g = gen::erdos_renyi(300, 1500, 5);
  const Assignment a = assign_edges(g, machines, {kind, 7});
  const Assignment b = assign_edges(g, machines, {kind, 7});
  EXPECT_EQ(a.edge_machine, b.edge_machine);
}

TEST_P(CutInvariants, ReasonableLoadBalance) {
  const auto [kind, machines] = GetParam();
  const Graph g = gen::erdos_renyi(2000, 20000, 9);
  const Assignment a = assign_edges(g, machines, {kind, 7});
  const auto loads = machine_loads(a, machines);
  const double avg =
      static_cast<double>(g.num_edges()) / static_cast<double>(machines);
  for (const auto load : loads) {
    EXPECT_LT(static_cast<double>(load), 3.0 * avg)
        << to_string(kind) << " imbalanced";
  }
}

TEST_P(CutInvariants, LambdaAtLeastOne) {
  const auto [kind, machines] = GetParam();
  const Graph g = gen::rmat(9, 6, 0.55, 0.2, 0.2, 3);
  const Assignment a = assign_edges(g, machines, {kind, 7});
  const double lambda = replication_factor(g, a, machines);
  EXPECT_GE(lambda, 1.0);
  EXPECT_LE(lambda, static_cast<double>(machines));
}

INSTANTIATE_TEST_SUITE_P(
    AllCuts, CutInvariants,
    ::testing::Combine(::testing::Values(CutKind::kRandom, CutKind::kGrid,
                                         CutKind::kCoordinated,
                                         CutKind::kOblivious,
                                         CutKind::kHybrid),
                       ::testing::Values<machine_t>(2, 8, 48)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// cut_kind_from_string: the inverse of to_string(CutKind), the one parser
// behind the tools' --cut flag.
TEST(CutKindFromString, RoundTripsEveryKind) {
  for (CutKind k : {CutKind::kRandom, CutKind::kGrid, CutKind::kCoordinated,
                    CutKind::kOblivious, CutKind::kHybrid}) {
    EXPECT_EQ(cut_kind_from_string(to_string(k)), k);
  }
}

TEST(CutKindFromString, UnknownNameThrowsNamingIt) {
  for (const char* bad : {"greedy", "", "Random", "?"}) {
    try {
      cut_kind_from_string(bad);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), std::string("unknown cut: ") + bad);
    }
  }
}

TEST(Partitioner, SingleMachineLambdaIsOne) {
  const Graph g = gen::erdos_renyi(100, 500, 1);
  const Assignment a = assign_edges(g, 1, {CutKind::kCoordinated, 1});
  EXPECT_DOUBLE_EQ(replication_factor(g, a, 1), 1.0);
}

TEST(Partitioner, RejectsTooManyMachines) {
  const Graph g = gen::erdos_renyi(10, 20, 1);
  EXPECT_THROW(assign_edges(g, 65, {}), std::invalid_argument);
  EXPECT_THROW(assign_edges(g, 0, {}), std::invalid_argument);
}

TEST(Partitioner, GridCutBoundsReplication) {
  // Grid-cut bounds a vertex's replicas by rows + cols of the machine grid.
  const Graph g = gen::rmat(10, 16, 0.57, 0.19, 0.19, 3);  // has hubs
  const machine_t machines = 16;                           // 4x4 grid
  const Assignment a = assign_edges(g, machines, {CutKind::kGrid, 3});
  std::vector<std::uint64_t> mask(g.num_vertices(), 0);
  for (std::size_t i = 0; i < g.edges().size(); ++i) {
    mask[g.edges()[i].src] |= std::uint64_t{1} << a.edge_machine[i];
    mask[g.edges()[i].dst] |= std::uint64_t{1} << a.edge_machine[i];
  }
  for (const auto m : mask) {
    EXPECT_LE(std::popcount(m), 4 + 4 - 1);
  }
}

TEST(Partitioner, CoordinatedBeatsObliviousBeatsRandomOnLambda) {
  const Graph g = datasets::make(datasets::spec_by_name("youtube-like"), 0.1);
  const machine_t machines = 16;
  const double random_lambda = replication_factor(
      g, assign_edges(g, machines, {CutKind::kRandom, 3}), machines);
  const double oblivious_lambda = replication_factor(
      g, assign_edges(g, machines, {CutKind::kOblivious, 3}), machines);
  const double coord_lambda = replication_factor(
      g, assign_edges(g, machines, {CutKind::kCoordinated, 3}), machines);
  // Shared replica table (coordinated) <= per-loader tables (oblivious)
  // <= hashing (random), as PowerGraph reports.
  EXPECT_LT(coord_lambda, oblivious_lambda);
  EXPECT_LT(oblivious_lambda, random_lambda);
}

TEST(Partitioner, HybridCoLocatesLowInDegreeDestinations) {
  // With a huge threshold every edge hashes by destination: all in-edges of
  // a vertex land on one machine.
  const Graph g = gen::erdos_renyi(200, 2000, 5);
  PartitionOptions opts{CutKind::kHybrid, 3, /*hybrid_threshold=*/1 << 30};
  const Assignment a = assign_edges(g, 8, opts);
  std::map<vid_t, machine_t> dst_machine;
  for (std::size_t i = 0; i < g.edges().size(); ++i) {
    const vid_t dst = g.edges()[i].dst;
    const auto it = dst_machine.find(dst);
    if (it == dst_machine.end()) {
      dst_machine[dst] = a.edge_machine[i];
    } else {
      EXPECT_EQ(it->second, a.edge_machine[i]) << "dst " << dst << " split";
    }
  }
}

TEST(Partitioner, HybridSpreadsHubInEdges) {
  // Star transposed: all edges point at vertex 0 (huge in-degree). With a
  // small threshold they are cut by source and spread across machines.
  const Graph g = gen::star(512, false).transposed();
  PartitionOptions opts{CutKind::kHybrid, 3, /*hybrid_threshold=*/4};
  const Assignment a = assign_edges(g, 8, opts);
  std::set<machine_t> used(a.edge_machine.begin(), a.edge_machine.end());
  EXPECT_GT(used.size(), 4u);
}

TEST(Partitioner, ReplicationFactorCountsIsolatedVerticesOnce) {
  const Graph g(5, {{0, 1, 1}});  // vertices 2,3,4 isolated
  const Assignment a = assign_edges(g, 4, {CutKind::kRandom, 1});
  EXPECT_DOUBLE_EQ(replication_factor(g, a, 4), 1.0);
}

TEST(Partitioner, MachineLoadsSumToEdgeCount) {
  const Graph g = gen::erdos_renyi(500, 4000, 13);
  const Assignment a = assign_edges(g, 12, {CutKind::kCoordinated, 5});
  const auto loads = machine_loads(a, 12);
  std::uint64_t total = 0;
  for (const auto l : loads) total += l;
  EXPECT_EQ(total, g.num_edges());
}

// Golden digests of the coordinated cut on two Table 1 analogues, so a
// faster greedy placement must reproduce every edge's machine to the bit
// (the least-loaded tie-break included).
struct AssignmentPin {
  const char* name;
  double scale;
  std::uint64_t digest;
};

void PrintTo(const AssignmentPin& pin, std::ostream* os) { *os << pin.name; }

class CoordinatedAssignmentPin
    : public ::testing::TestWithParam<AssignmentPin> {};

TEST_P(CoordinatedAssignmentPin, SixteenMachines) {
  const AssignmentPin& pin = GetParam();
  const Graph g =
      datasets::make(datasets::spec_by_name(pin.name), pin.scale);
  const Assignment a =
      assign_edges(g, 16, {.kind = CutKind::kCoordinated, .seed = 5});
  std::uint64_t h = mix64(a.edge_machine.size());
  for (const machine_t m : a.edge_machine) h = mix64(h ^ m);
  EXPECT_EQ(h, pin.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, CoordinatedAssignmentPin,
    ::testing::Values(AssignmentPin{"uk2005-like", 1.0, 17561457006337351591u},
                      AssignmentPin{"livejournal-like", 0.25,
                                    8954428262391277047u}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace lazygraph::partition
