// The differential-testing oracle's own tests: generator determinism and
// coverage, scenario serialization, oracle verdicts (including the
// fault-injection self-test proving it catches wrong fixed points), and the
// greedy shrinker.
#include <gtest/gtest.h>

#include <set>

#include "testing/oracle.hpp"
#include "testing/scenario.hpp"
#include "testing/shrinker.hpp"

namespace lazygraph::testing {
namespace {

TEST(ScenarioGenerator, DeterministicForSameSeedAndIndex) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(make_scenario(7, i), make_scenario(7, i)) << "index " << i;
  }
}

TEST(ScenarioGenerator, DifferentIndicesDiffer) {
  std::set<std::string> dumps;
  for (std::uint64_t i = 0; i < 50; ++i) {
    dumps.insert(make_scenario(7, i).to_text());
  }
  EXPECT_GT(dumps.size(), 45u);
}

TEST(ScenarioGenerator, CorpusCoversTheDegenerateShapes) {
  bool single_machine = false, more_machines_than_vertices = false;
  bool empty_graph = false, self_loop = false, split = false;
  std::set<ProgramKind> programs;
  std::set<partition::CutKind> cuts;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const Scenario s = make_scenario(3, i);
    single_machine |= s.machines == 1;
    more_machines_than_vertices |= s.machines > s.num_vertices;
    empty_graph |= s.num_vertices == 0;
    split |= s.split;
    for (const Edge& e : s.edges) self_loop |= e.src == e.dst;
    programs.insert(s.program);
    cuts.insert(s.cut);
  }
  EXPECT_TRUE(single_machine);
  EXPECT_TRUE(more_machines_than_vertices);
  EXPECT_TRUE(empty_graph);
  EXPECT_TRUE(self_loop);
  EXPECT_TRUE(split);
  EXPECT_EQ(programs.size(), static_cast<std::size_t>(kNumProgramKinds));
  EXPECT_EQ(cuts.size(), 5u);
}

TEST(ScenarioGenerator, EdgesAlwaysInRange) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Scenario s = make_scenario(11, i);
    for (const Edge& e : s.edges) {
      ASSERT_LT(e.src, s.num_vertices);
      ASSERT_LT(e.dst, s.num_vertices);
    }
    if (s.needs_source()) {
      ASSERT_LT(s.source, s.num_vertices);
    }
  }
}

TEST(ScenarioText, RoundTripsExactly) {
  for (std::uint64_t i = 0; i < 30; ++i) {
    const Scenario s = make_scenario(5, i);
    const Scenario back = Scenario::from_text(s.to_text());
    EXPECT_EQ(back, s) << "index " << i;
    EXPECT_EQ(back.to_text(), s.to_text());
  }
}

TEST(ScenarioText, RejectsMalformedInput) {
  EXPECT_THROW(Scenario::from_text("nonsense"), std::invalid_argument);
  Scenario s = make_scenario(5, 1);
  std::string text = s.to_text();
  EXPECT_THROW(Scenario::from_text(text.substr(0, text.size() / 2)),
               std::invalid_argument);
}

TEST(Oracle, AcceptsGeneratedScenarios) {
  for (std::uint64_t i = 0; i < 12; ++i) {
    const Scenario s = make_scenario(42, i);
    const Verdict v = check_scenario(s);
    EXPECT_TRUE(v.ok) << s.summary() << "\n" << v.failure;
  }
}

TEST(Oracle, RejectsOutOfRangeSource) {
  Scenario s = make_scenario(42, 0);
  s.pipeline.clear();  // target the single-program path, not the plan oracle
  s.program = ProgramKind::kSssp;
  s.num_vertices = 0;
  s.edges.clear();
  EXPECT_FALSE(check_scenario(s).ok);
}

// Self-test: corrupting one engine's output must trip the reference
// comparison — the oracle is only trustworthy if it can fail.
TEST(Oracle, FlagsAWrongFixedPoint) {
  OracleOptions opts;
  opts.inject_result_error = true;
  opts.check_determinism = false;
  int flagged = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const Scenario s = make_scenario(42, i);
    if (s.num_vertices == 0) continue;
    const Verdict v = check_scenario(s, opts);
    if (!v.ok) ++flagged;
  }
  EXPECT_GT(flagged, 0);
}

TEST(Shrinker, KeepsIrreproducibleScenarioUnchanged) {
  const Scenario s = make_scenario(9, 0);
  const auto rep = shrink(s, [](const Scenario&) { return false; });
  EXPECT_EQ(rep.scenario, s);
  EXPECT_EQ(rep.accepted, 0u);
}

TEST(Shrinker, MinimizesToTheFailureCore) {
  // Synthetic failure: "at least 2 machines and some edge into vertex 5".
  // The minimal reproduction is one edge, six vertices, two machines.
  Scenario s = make_scenario(9, 3);
  s.num_vertices = std::max<vid_t>(s.num_vertices, 50);
  s.machines = 12;
  s.edges.push_back({3, 5, 1.0f});
  const auto pred = [](const Scenario& c) {
    if (c.machines < 2) return false;
    for (const Edge& e : c.edges) {
      if (e.dst == 5) return true;
    }
    return false;
  };
  ASSERT_TRUE(pred(s));
  const auto rep = shrink(s, pred, 4000);
  EXPECT_TRUE(pred(rep.scenario));
  EXPECT_EQ(rep.scenario.machines, 2u);
  EXPECT_EQ(rep.scenario.edges.size(), 1u);
  EXPECT_EQ(rep.scenario.edges[0].dst, 5u);
  EXPECT_LE(rep.scenario.num_vertices, 7u);
  EXPECT_GT(rep.accepted, 0u);
}

TEST(Shrinker, MinimizedRealFailureStillFails) {
  // End-to-end: shrink an injected-fault failure and make sure the shrunk
  // scenario still reproduces under the same oracle options.
  OracleOptions opts;
  opts.inject_result_error = true;
  opts.check_determinism = false;
  Scenario failing;
  bool found = false;
  for (std::uint64_t i = 0; i < 10 && !found; ++i) {
    failing = make_scenario(42, i);
    found = failing.num_vertices > 0 && !check_scenario(failing, opts).ok;
  }
  ASSERT_TRUE(found);
  const auto pred = [&](const Scenario& c) {
    return !check_scenario(c, opts).ok;
  };
  const auto rep = shrink(failing, pred, 200);
  EXPECT_TRUE(pred(rep.scenario));
  EXPECT_LE(rep.scenario.edges.size(), failing.edges.size());
}

}  // namespace
}  // namespace lazygraph::testing
