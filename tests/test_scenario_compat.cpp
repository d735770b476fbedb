// Scenario text format: the one accepted header, the keyed fields the
// generator and shrinker exercise (kill, batch), and rejection of any other
// header with a message naming the accepted one.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/failure.hpp"
#include "testing/oracle.hpp"
#include "testing/scenario.hpp"
#include "testing/shrinker.hpp"

namespace lazygraph::testing {
namespace {

TEST(ScenarioCompat, CurrentWriterEmitsV7) {
  const Scenario s = make_scenario(1, 0);
  EXPECT_EQ(s.to_text().substr(0, 22), "lazygraph-scenario v7\n");
  for (std::uint64_t i = 0; i < 60; ++i) {
    const Scenario g = make_scenario(20260808, i);
    EXPECT_EQ(Scenario::from_text(g.to_text()), g) << "scenario " << i;
  }
}

// Dumps are replayed at the commit that wrote them, so older headers are
// rejected outright, and the message names the header that is accepted.
TEST(ScenarioCompat, OlderHeadersRejectedNamingCurrent) {
  const std::string body = make_scenario(7, 3).to_text().substr(22);
  for (int version = 1; version <= 6; ++version) {
    const std::string header =
        "lazygraph-scenario v" + std::to_string(version) + "\n";
    try {
      Scenario::from_text(header + body);
      ADD_FAILURE() << "v" << version << " header accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'lazygraph-scenario v7'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioCompat, KillKeyRoundTripsAndDashMeansNone) {
  Scenario s = make_scenario(7, 3);
  s.pipeline.clear();  // kill and pipeline are mutually exclusive by draw
  s.kill = "1@2:3,0@5";
  const Scenario parsed = Scenario::from_text(s.to_text());
  EXPECT_EQ(parsed.kill, "1@2:3,0@5");
  EXPECT_TRUE(parsed.has_failures());

  s.kill.clear();
  const std::string text = s.to_text();
  EXPECT_NE(text.find("\nkill -\n"), std::string::npos);
  EXPECT_FALSE(Scenario::from_text(text).has_failures());
}

TEST(ScenarioCompat, MalformedKillRejected) {
  Scenario s = make_scenario(7, 3);
  s.kill.clear();
  for (const char* bad : {"nonsense", "@3", "1@0", "1@2:0", "1@2x", ",1@2"}) {
    std::string text = s.to_text();
    const std::string needle = "\nkill -\n";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, needle.size(), std::string("\nkill ") + bad + "\n");
    EXPECT_THROW(Scenario::from_text(text), std::invalid_argument) << bad;
  }
}

TEST(ScenarioCompat, UnknownHeaderRejected) {
  const Scenario s = make_scenario(7, 3);
  std::string text = s.to_text();
  text.replace(0, 21, "lazygraph-scenario v8");
  EXPECT_THROW(Scenario::from_text(text), std::invalid_argument);
}

TEST(ScenarioCompat, BatchKeyRoundTripsAndDashMeansNone) {
  Scenario s = make_scenario(7, 3);
  s.pipeline.clear();
  s.kill.clear();
  s.program = ProgramKind::kSssp;
  if (s.num_vertices == 0) s.num_vertices = 4;
  s.batch = "1,0,3";
  const Scenario parsed = Scenario::from_text(s.to_text());
  EXPECT_EQ(parsed.batch, "1,0,3");
  EXPECT_TRUE(parsed.has_batch());
  EXPECT_EQ(parsed.batch_lanes(), (std::vector<std::uint32_t>{1, 0, 3}));

  s.batch.clear();
  const std::string text = s.to_text();
  EXPECT_NE(text.find("\nbatch -\n"), std::string::npos);
  EXPECT_FALSE(Scenario::from_text(text).has_batch());
}

TEST(ScenarioCompat, MalformedBatchRejected) {
  Scenario s = make_scenario(7, 3);
  s.batch.clear();
  for (const char* bad : {"nonsense", "1,,2", "1,x", ",1", "-3",
                          "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16"}) {
    std::string text = s.to_text();
    const std::string needle = "\nbatch -\n";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, needle.size(), std::string("\nbatch ") + bad + "\n");
    EXPECT_THROW(Scenario::from_text(text), std::invalid_argument) << bad;
  }
}

// Generator sanity for the batch draw: batch lanes appear at roughly 1-in-4 on
// eligible scenarios (per-query parameterized program, no pipeline, no
// kill), never elsewhere, and every drawn lane is in range.
TEST(ScenarioCompat, GeneratorDrawsValidBatchLanes) {
  int with_batch = 0, eligible = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const Scenario s = make_scenario(99, i);
    const bool batchable =
        (s.needs_source() || s.program == ProgramKind::kKcore) &&
        s.num_vertices > 0;
    if (s.has_pipeline() || s.has_failures() || !batchable) {
      EXPECT_FALSE(s.has_batch()) << i;
      continue;
    }
    ++eligible;
    if (!s.has_batch()) continue;
    ++with_batch;
    const auto lanes = s.batch_lanes();
    EXPECT_EQ(Scenario::join_lanes(lanes), s.batch) << i;  // canonical form
    EXPECT_GE(lanes.size(), 1u) << i;
    EXPECT_LE(lanes.size(), 3u) << i;
    for (const std::uint32_t lane : lanes) {
      if (s.program == ProgramKind::kKcore) {
        EXPECT_GE(lane, 1u) << i;
        EXPECT_LE(lane, 5u) << i;
      } else {
        EXPECT_LT(lane, s.num_vertices) << i;
      }
    }
  }
  EXPECT_GT(with_batch, eligible / 8);
  EXPECT_LT(with_batch, eligible / 2);
}

// Shrinker integration for batch lanes: an indifferent predicate drops the
// batch; a predicate that needs it keeps at least one lane; lane sources
// survive vertex compaction (remapped, still in range).
TEST(ScenarioCompat, ShrinkerDropsOrKeepsBatch) {
  Scenario s = make_scenario(11, 5);
  s.pipeline.clear();
  s.kill.clear();
  s.program = ProgramKind::kSssp;
  if (s.num_vertices < 8) s.num_vertices = 8;
  s.batch = "3,5,7";

  const auto indifferent = [](const Scenario& c) { return c.machines >= 1; };
  const ShrinkReport dropped = shrink(s, indifferent, 500);
  EXPECT_FALSE(dropped.scenario.has_batch());

  const auto needs_two = [](const Scenario& c) {
    return c.has_batch() && c.batch_lanes().size() >= 2;
  };
  const ShrinkReport kept = shrink(s, needs_two, 500);
  ASSERT_TRUE(kept.scenario.has_batch());
  EXPECT_EQ(kept.scenario.batch_lanes().size(), 2u);
  for (const std::uint32_t lane : kept.scenario.batch_lanes()) {
    EXPECT_LT(lane, kept.scenario.num_vertices);
  }
  EXPECT_EQ(Scenario::from_text(kept.scenario.to_text()), kept.scenario);
}

// Generator sanity for the kill draw: failure plans appear at roughly 1-in-4
// on non-pipeline scenarios, never alongside a pipeline, and every drawn
// plan is valid canonical FailurePlan text.
TEST(ScenarioCompat, GeneratorDrawsValidKillPlans) {
  int with_kill = 0, eligible = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Scenario s = make_scenario(99, i);
    if (s.has_pipeline()) {
      EXPECT_FALSE(s.has_failures()) << i;
      continue;
    }
    ++eligible;
    if (!s.has_failures()) continue;
    ++with_kill;
    const auto plan = sim::FailurePlan::parse(s.kill);
    EXPECT_EQ(plan.to_string(), s.kill) << i;  // canonical form
    ASSERT_EQ(plan.events.size(), 1u) << i;
    EXPECT_LT(plan.events[0].machine, s.machines) << i;
  }
  // ~25% of eligible scenarios; loose bounds to stay seed-robust.
  EXPECT_GT(with_kill, eligible / 8);
  EXPECT_LT(with_kill, eligible / 2);
}

// Shrinker integration: when the failure predicate does not depend on the
// kill, the drop-kill knob removes it; when it does, the kill survives
// shrinking and the shrunk dump still round-trips.
TEST(ScenarioCompat, ShrinkerDropsOrKeepsKill) {
  Scenario s = make_scenario(11, 5);
  s.pipeline.clear();
  s.kill = "1@2:3";

  const auto indifferent = [](const Scenario& c) { return c.machines >= 1; };
  const ShrinkReport dropped = shrink(s, indifferent, 500);
  EXPECT_TRUE(dropped.scenario.kill.empty());

  const auto needs_kill = [](const Scenario& c) { return c.has_failures(); };
  const ShrinkReport kept = shrink(s, needs_kill, 500);
  EXPECT_EQ(kept.scenario.kill, "1@2:3");
  EXPECT_EQ(Scenario::from_text(kept.scenario.to_text()), kept.scenario);
}

}  // namespace
}  // namespace lazygraph::testing
