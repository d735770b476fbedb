// The plan subsystem: Pipeline record/parse round-trips, the
// engine_kind_from_string inverse, and the Executor's lowering guarantees —
// composed execution bit-identical to the sequential reference across
// engines and thread counts, zero redundant partitions/builds through the
// artifact cache, stage fusion, carried frontiers, warm starts, and the
// Merkle stage memo.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "lazygraph.hpp"
#include "testing/oracle.hpp"
#include "testing/scenario.hpp"

namespace lazygraph {
namespace {

using engine::EngineKind;

Graph test_graph() {
  // Power-law graph with a nontrivial k-core structure and several weakly
  // attached fringe vertices, so kcore prunes a real subset.
  return gen::rmat(/*scale=*/6, /*edge_factor=*/6, 0.57, 0.19, 0.19,
                   /*seed=*/42, {0.5f, 4.5f});
}

plan::Executor make_executor(const Graph& g, partition::ArtifactCache* cache) {
  return plan::Executor(g, /*machines=*/4,
                        {.kind = partition::CutKind::kCoordinated, .seed = 9},
                        cache);
}

void expect_same_digests(const plan::PipelineResult& a,
                         const plan::PipelineResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].digest, b.outcomes[i].digest) << "stage " << i;
    EXPECT_EQ(a.outcomes[i].supersteps, b.outcomes[i].supersteps)
        << "stage " << i;
  }
}

// ---------------------------------------------------------------------------
// engine_kind_from_string: the inverse of to_string(EngineKind).

TEST(EngineKindFromString, RoundTripsEveryKind) {
  for (EngineKind k : {EngineKind::kSync, EngineKind::kAsync,
                       EngineKind::kLazyBlock, EngineKind::kLazyVertex}) {
    EXPECT_EQ(engine::engine_kind_from_string(engine::to_string(k)), k);
  }
}

TEST(EngineKindFromString, AcceptsShortAliases) {
  EXPECT_EQ(engine::engine_kind_from_string("sync"), EngineKind::kSync);
  EXPECT_EQ(engine::engine_kind_from_string("async"), EngineKind::kAsync);
  EXPECT_EQ(engine::engine_kind_from_string("lazy-block"),
            EngineKind::kLazyBlock);
  EXPECT_EQ(engine::engine_kind_from_string("lazy-vertex"),
            EngineKind::kLazyVertex);
}

TEST(EngineKindFromString, RejectsUnknownNames) {
  EXPECT_THROW(engine::engine_kind_from_string("eager"),
               std::invalid_argument);
  EXPECT_THROW(engine::engine_kind_from_string(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pipeline recording and text grammar.

TEST(Pipeline, BuilderRecordsStagesWithoutExecuting) {
  plan::Pipeline p;
  p.kcore(5).cc().pagerank(1e-3).on("sync");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.stages()[0].algo, plan::AlgoKind::kKcore);
  EXPECT_EQ(p.stages()[0].k, 5u);
  EXPECT_EQ(p.stages()[1].algo, plan::AlgoKind::kCc);
  EXPECT_FALSE(p.stages()[1].has_source);
  EXPECT_EQ(p.stages()[2].algo, plan::AlgoKind::kPagerank);
  EXPECT_EQ(p.stages()[2].tol, 1e-3);
  // on() binds the engine preference of the most recent stage only.
  EXPECT_EQ(p.stages()[2].engine, "powergraph-sync");
  EXPECT_TRUE(p.stages()[0].engine.empty());
}

TEST(Pipeline, TextRoundTripsThroughParse) {
  plan::Pipeline p;
  p.kcore(5).cc().pagerank(1e-3).on("sync").sssp(7);
  const std::string text = p.to_string();
  const plan::Pipeline q = plan::Pipeline::parse(text);
  ASSERT_EQ(q.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(q.stages()[i], p.stages()[i]) << "stage " << i;
  }
  EXPECT_EQ(q.to_string(), text);
}

TEST(Pipeline, ParseAcceptsTheDocumentedGrammar) {
  const plan::Pipeline p = plan::Pipeline::parse("cc(3)|pagerank(0.01)@sync");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.stages()[0].algo, plan::AlgoKind::kCc);
  EXPECT_TRUE(p.stages()[0].has_source);
  EXPECT_EQ(p.stages()[0].source, 3u);
  EXPECT_EQ(p.stages()[1].tol, 0.01);
  EXPECT_EQ(p.stages()[1].engine, "powergraph-sync");
}

TEST(Pipeline, ParseRejectsMalformedInput) {
  EXPECT_THROW(plan::Pipeline::parse(""), std::invalid_argument);
  EXPECT_THROW(plan::Pipeline::parse("kcore(3)| cc"), std::invalid_argument);
  EXPECT_THROW(plan::Pipeline::parse("frobnicate"), std::invalid_argument);
  EXPECT_THROW(plan::Pipeline::parse("sssp"), std::invalid_argument);
  EXPECT_THROW(plan::Pipeline::parse("cc(1,2)"), std::invalid_argument);
  EXPECT_THROW(plan::Pipeline::parse("cc@warp"), std::invalid_argument);
  EXPECT_THROW(plan::Pipeline::parse("kcore(x)"), std::invalid_argument);
}

TEST(Pipeline, AlgoKindNamesRoundTrip) {
  for (int i = 0; i < plan::kNumAlgoKinds; ++i) {
    const auto a = static_cast<plan::AlgoKind>(i);
    EXPECT_EQ(plan::algo_kind_from_string(plan::to_string(a)), a);
  }
  EXPECT_THROW(plan::algo_kind_from_string("nope"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Composed-vs-sequential equivalence matrix: the tentpole invariant. The
// composed lowering (fusion + carried frontiers + cache + memo) must be
// bit-identical to per-stage cold execution, per engine and thread count.

class ComposedEquivalence
    : public ::testing::TestWithParam<std::tuple<EngineKind, const char*>> {};

TEST_P(ComposedEquivalence, MatchesSequentialReferenceBitForBit) {
  const auto [kind, text] = GetParam();
  const Graph g = test_graph();
  const plan::Pipeline pipe = plan::Pipeline::parse(text);
  for (std::uint32_t tpm : {1u, 7u}) {
    plan::LowerOptions opts;
    opts.default_engine = kind;
    opts.threads_per_machine = tpm;

    partition::ArtifactCache cache;
    plan::Executor composed = make_executor(g, &cache);
    const auto cres = composed.run(pipe, opts);
    ASSERT_TRUE(cres.converged) << "tpm=" << tpm;

    plan::Executor seq = make_executor(g, nullptr);
    const auto sres = seq.run(pipe, plan::sequential_baseline(opts));
    ASSERT_TRUE(sres.converged) << "tpm=" << tpm;

    expect_same_digests(cres, sres);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByPipelines, ComposedEquivalence,
    ::testing::Combine(::testing::Values(EngineKind::kSync,
                                         EngineKind::kLazyBlock,
                                         EngineKind::kLazyVertex),
                       ::testing::Values("kcore(3)|cc", "cc|pagerank(0.001)")));

// ---------------------------------------------------------------------------
// Artifact economy: one partition + build per distinct graph view, and the
// Merkle stage memo replays an identical re-lowering with zero engine runs.

TEST(Executor, ZeroRedundantPartitionsAcrossViews) {
  const Graph g = test_graph();
  // kcore + cc want the symmetrized view, pagerank the plain one: exactly
  // two partitions and two builds despite three stages.
  const plan::Pipeline pipe =
      plan::Pipeline::parse("kcore(3)|cc|pagerank(0.001)");
  partition::ArtifactCache cache;
  plan::Executor ex = make_executor(g, &cache);
  const auto res = ex.run(pipe, {});
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.engine_runs, 3u);
  EXPECT_EQ(res.partitions_computed, 2u);
  EXPECT_EQ(res.builds_computed, 2u);
  const auto st = cache.stats();
  EXPECT_EQ(st.assignment_misses, 2u);
  EXPECT_EQ(st.dgraph_misses, 2u);
}

// The lowering's metrics report the peak engine state over its group runs
// (each run stamps state_bytes on its own RunResult, not on the cluster).
TEST(Executor, ReportsPeakEngineStateOverGroups) {
  const Graph g = test_graph();
  plan::LowerOptions opts;
  opts.default_engine = EngineKind::kSync;
  const auto state_of = [&](const char* text) {
    partition::ArtifactCache cache;
    plan::Executor ex = make_executor(g, &cache);
    const auto res = ex.run(plan::Pipeline::parse(text), opts);
    EXPECT_TRUE(res.converged) << text;
    return res.metrics.state_bytes;
  };
  const std::uint64_t cc = state_of("cc");
  const std::uint64_t pagerank = state_of("pagerank(0.001)");
  EXPECT_GT(cc, 0u);
  EXPECT_GT(pagerank, 0u);
  EXPECT_EQ(state_of("cc|pagerank(0.001)"), std::max(cc, pagerank));
}

TEST(Executor, StageMemoReplaysRepeatedLowering) {
  const Graph g = test_graph();
  const plan::Pipeline pipe = plan::Pipeline::parse("kcore(3)|cc");
  partition::ArtifactCache cache;
  plan::Executor ex = make_executor(g, &cache);
  const auto first = ex.run(pipe, {});
  ASSERT_TRUE(first.converged);
  const auto replay = ex.run(pipe, {});
  EXPECT_EQ(replay.engine_runs, 0u);
  EXPECT_EQ(replay.partitions_computed, 0u);
  for (const plan::StageReport& r : replay.stages) EXPECT_TRUE(r.reused);
  expect_same_digests(first, replay);

  // A prefix-sharing pipeline replays the shared stage only.
  const auto extended = ex.run(plan::Pipeline::parse("kcore(3)|cc|cc"), {});
  ASSERT_EQ(extended.stages.size(), 3u);
  EXPECT_TRUE(extended.stages[0].reused);
  EXPECT_TRUE(extended.stages[1].reused);
  EXPECT_FALSE(extended.stages[2].reused);
  EXPECT_EQ(extended.engine_runs, 1u);
}

// ---------------------------------------------------------------------------
// Fusion: whitelisted adjacent stages share one engine run and still
// reproduce the sequential bits.

TEST(Executor, FusesCcKcoreIntoOneEngineRun) {
  const Graph g = test_graph();
  const plan::Pipeline pipe = plan::Pipeline::parse("cc|kcore(3)");
  EXPECT_TRUE(plan::fusable(pipe.stages()[0], pipe.stages()[1],
                            EngineKind::kLazyBlock));

  partition::ArtifactCache cache;
  plan::Executor composed = make_executor(g, &cache);
  const auto cres = composed.run(pipe, {});
  ASSERT_TRUE(cres.converged);
  EXPECT_EQ(cres.engine_runs, 1u);
  EXPECT_TRUE(cres.stages[0].fused);
  EXPECT_TRUE(cres.stages[1].fused);
  EXPECT_EQ(cres.stages[0].group, cres.stages[1].group);

  plan::Executor seq = make_executor(g, nullptr);
  const auto sres = seq.run(pipe, plan::sequential_baseline({}));
  ASSERT_TRUE(sres.converged);
  expect_same_digests(cres, sres);
}

TEST(Executor, DoesNotFuseScopeNarrowingPairs) {
  // kcore narrows the scope it hands to cc, so the pair must not fuse.
  const plan::Pipeline pipe = plan::Pipeline::parse("kcore(3)|cc");
  EXPECT_FALSE(plan::fusable(pipe.stages()[0], pipe.stages()[1],
                             EngineKind::kLazyBlock));
  // (pagerank, sssp) fuses only under the lane-decoupled sync engine.
  const plan::Pipeline ps = plan::Pipeline::parse("pagerank(0.001)|sssp(0)");
  EXPECT_TRUE(plan::fusable(ps.stages()[0], ps.stages()[1], EngineKind::kSync));
  EXPECT_FALSE(
      plan::fusable(ps.stages()[0], ps.stages()[1], EngineKind::kLazyBlock));
}

// ---------------------------------------------------------------------------
// Carried frontiers: the narrowed scope seeds the next stage's init scan,
// doing strictly less sweep work for identical bits.

TEST(Executor, CarriedFrontierScansLessThanSequential) {
  const Graph g = test_graph();
  const plan::Pipeline pipe = plan::Pipeline::parse("kcore(5)|cc");

  partition::ArtifactCache cache;
  plan::Executor composed = make_executor(g, &cache);
  const auto cres = composed.run(pipe, {});
  ASSERT_TRUE(cres.converged);

  plan::Executor seq = make_executor(g, nullptr);
  const auto sres = seq.run(pipe, plan::sequential_baseline({}));
  ASSERT_TRUE(sres.converged);
  expect_same_digests(cres, sres);

  // kcore(5) must actually prune something for the handoff to matter.
  const auto& survivors = *cres.outcomes[0].scope_out;
  ASSERT_LT(survivors.size(), g.num_vertices());
  ASSERT_GT(survivors.size(), 0u);
  EXPECT_EQ(cres.stages[1].carried_frontier, survivors.size());
  EXPECT_LT(cres.metrics.sweep_scanned, sres.metrics.sweep_scanned);
}

// ---------------------------------------------------------------------------
// Warm start: pagerank |> pagerank refines the converged state instead of
// recomputing from the uniform prior, and both lowerings agree.

TEST(Executor, WarmStartsPagerankRefinement) {
  const Graph g = test_graph();
  const plan::Pipeline pipe =
      plan::Pipeline::parse("pagerank(0.01)|pagerank(0.0001)");

  partition::ArtifactCache cache;
  plan::Executor composed = make_executor(g, &cache);
  const auto cres = composed.run(pipe, {});
  ASSERT_TRUE(cres.converged);
  EXPECT_FALSE(cres.stages[0].warm);
  EXPECT_TRUE(cres.stages[1].warm);

  plan::Executor seq = make_executor(g, nullptr);
  const auto sres = seq.run(pipe, plan::sequential_baseline({}));
  ASSERT_TRUE(sres.converged);
  expect_same_digests(cres, sres);

  // The refined stage still lands on the true fixed point.
  const auto& ranks = cres.data_as<algos::PageRankDelta>(1);
  const auto ref = reference::pagerank(g, 1e-12, 20'000);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(ranks[v].rank, ref[v], 300 * 1e-4) << "vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// Typed access to stage outcomes.

TEST(Executor, DataAsChecksTheStageType) {
  const Graph g = test_graph();
  partition::ArtifactCache cache;
  plan::Executor ex = make_executor(g, &cache);
  const auto res = ex.run(plan::Pipeline::parse("cc"), {});
  ASSERT_TRUE(res.converged);
  const auto& labels = res.data_as<algos::ConnectedComponents>(0);
  EXPECT_EQ(labels.size(), g.num_vertices());
  EXPECT_THROW(res.data_as<algos::SSSP>(0), std::exception);
}

// ---------------------------------------------------------------------------
// Scenario v3 + the plan oracle.

TEST(PipelineScenario, TextRoundTripsPipelineFields) {
  testing::Scenario s;
  s.num_vertices = 4;
  s.edges = {{0, 1, 1.0f}, {1, 2, 2.0f}, {2, 3, 1.0f}};
  plan::Pipeline p;
  p.cc().pagerank(1e-3);
  s.pipeline = p.to_string();
  s.plan_engine = "powergraph-sync";
  const testing::Scenario back = testing::Scenario::from_text(s.to_text());
  EXPECT_EQ(back, s);
  EXPECT_TRUE(back.has_pipeline());
  EXPECT_EQ(back.pipeline, s.pipeline);
  EXPECT_EQ(back.plan_engine, "powergraph-sync");
}

TEST(PipelineScenario, V2TextsParseWithoutPipeline) {
  const char* v2 =
      "lazygraph-scenario v2\n"
      "seed 1\nvertices 3\nmachines 2\ncut random\npartition_seed 1\n"
      "split 0\nprogram cc\nsource 0\nkcore_k 3\ntol 0.0001\nalpha 0.5\n"
      "staleness 4\nthreads_per_machine 2\ninterval adaptive\n"
      "comm adaptive\nedges 1\n0 1 1\n";
  const testing::Scenario s = testing::Scenario::from_text(v2);
  EXPECT_FALSE(s.has_pipeline());
  EXPECT_EQ(s.plan_engine, "lazygraph-block");
}

TEST(PipelineScenario, OracleAcceptsComposedPipelines) {
  const Graph g = test_graph();
  testing::Scenario s;
  s.num_vertices = g.num_vertices();
  s.edges = g.edges();
  s.machines = 4;
  s.threads_per_machine = 2;
  plan::Pipeline p;
  p.kcore(3).cc().pagerank(1e-3);
  s.pipeline = p.to_string();
  for (const char* eng : {"sync", "lazy-block", "lazy-vertex"}) {
    s.plan_engine = engine::to_string(engine::engine_kind_from_string(eng));
    const testing::Verdict v = testing::check_pipeline_scenario(s);
    EXPECT_TRUE(v.ok) << eng << ": " << v.failure;
  }
}

TEST(PipelineScenario, GeneratorEmitsValidPipelines) {
  // Every generated pipeline must parse, name in-range sources, and carry a
  // valid default engine.
  int with_pipeline = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const testing::Scenario s = testing::make_scenario(/*corpus_seed=*/3, i);
    if (!s.has_pipeline()) continue;
    ++with_pipeline;
    const plan::Pipeline p = plan::Pipeline::parse(s.pipeline);
    EXPECT_FALSE(p.empty());
    engine::engine_kind_from_string(s.plan_engine);
    for (const plan::StageSpec& st : p.stages()) {
      if (st.has_source) {
        EXPECT_LT(st.source, s.num_vertices);
      }
    }
    // Serialization keeps the pipeline replayable.
    EXPECT_EQ(testing::Scenario::from_text(s.to_text()), s);
  }
  EXPECT_GT(with_pipeline, 4);
}

}  // namespace
}  // namespace lazygraph
