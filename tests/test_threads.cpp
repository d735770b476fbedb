// Thread-count invariance of the parallel machine phases: the owner-computes
// SyncEngine superstep, lazy-block's local sweeps and delta exchange, and
// the plan layer's lowering cluster must produce the same data, supersteps
// and counters at any cluster thread count, and a
// Cluster must never run more machine bodies at once than its thread cap.
// These are the tests the ThreadSanitizer build runs (label `threads`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "lazygraph.hpp"
#include "test_support.hpp"

namespace lazygraph {
namespace {

using engine::EngineKind;

/// Every SimMetrics field, counters and modeled seconds alike, bit for bit.
void expect_same_metrics(const sim::SimMetrics& a, const sim::SimMetrics& b,
                         const std::string& where) {
  EXPECT_EQ(a.global_syncs, b.global_syncs) << where;
  EXPECT_EQ(a.network_messages, b.network_messages) << where;
  EXPECT_EQ(a.network_bytes, b.network_bytes) << where;
  EXPECT_EQ(a.supersteps, b.supersteps) << where;
  EXPECT_EQ(a.local_subiterations, b.local_subiterations) << where;
  EXPECT_EQ(a.applies, b.applies) << where;
  EXPECT_EQ(a.edge_traversals, b.edge_traversals) << where;
  EXPECT_EQ(a.a2a_exchanges, b.a2a_exchanges) << where;
  EXPECT_EQ(a.m2m_exchanges, b.m2m_exchanges) << where;
  EXPECT_EQ(a.vertex_coherency_events, b.vertex_coherency_events) << where;
  EXPECT_EQ(a.sweep_scanned, b.sweep_scanned) << where;
  EXPECT_EQ(a.sweep_edges_pushed, b.sweep_edges_pushed) << where;
  EXPECT_EQ(a.exchange_bytes_raw, b.exchange_bytes_raw) << where;
  EXPECT_EQ(a.exchange_bytes_wire, b.exchange_bytes_wire) << where;
  EXPECT_EQ(a.state_bytes, b.state_bytes) << where;
  EXPECT_EQ(a.recoveries, b.recoveries) << where;
  EXPECT_EQ(a.guard_bytes, b.guard_bytes) << where;
  EXPECT_EQ(a.recovery_bytes, b.recovery_bytes) << where;
  EXPECT_EQ(a.compute_seconds, b.compute_seconds) << where;
  EXPECT_EQ(a.comm_seconds, b.comm_seconds) << where;
  EXPECT_EQ(a.barrier_seconds, b.barrier_seconds) << where;
  EXPECT_EQ(a.overhead_seconds, b.overhead_seconds) << where;
}

/// Runs `prog` on engine `kind` over `dg` at cluster threads 1, 2, 4 and 7
/// and checks every run against the serial one: data (via `eq`),
/// supersteps, convergence and every metric. Returns the serial run's
/// metrics.
template <class P, class Eq>
sim::SimMetrics expect_thread_invariant(
    const partition::DistributedGraph& dg, const engine::RunConfig& cfg,
    const P& prog, Eq eq) {
  std::vector<engine::RunResult<P>> runs;
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    sim::Cluster cluster({.machines = 8, .threads = threads});
    runs.push_back(engine::run(cfg, dg, prog, cluster));
  }
  EXPECT_TRUE(runs[0].converged);
  EXPECT_GT(runs[0].supersteps, 2u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const std::string where = "run " + std::to_string(i);
    EXPECT_EQ(runs[i].converged, runs[0].converged) << where;
    EXPECT_EQ(runs[i].supersteps, runs[0].supersteps) << where;
    expect_same_metrics(runs[i].metrics, runs[0].metrics, where);
    EXPECT_EQ(runs[i].data.size(), runs[0].data.size()) << where;
    const std::size_t n = std::min(runs[i].data.size(), runs[0].data.size());
    for (std::size_t v = 0; v < n; ++v) {
      if (!eq(runs[i].data[v], runs[0].data[v])) {
        ADD_FAILURE() << where << " vertex " << v;
        break;
      }
    }
    EXPECT_EQ(runs[i].handoff.touched, runs[0].handoff.touched) << where;
  }
  return runs[0].metrics;
}

template <class P, class Eq>
void expect_sync_thread_invariant(const Graph& g, const P& prog, Eq eq) {
  expect_thread_invariant(testsupport::build_dgraph(g, 8),
                          {.kind = EngineKind::kSync}, prog, eq);
}

Graph directed_graph() {
  return gen::rmat(/*scale=*/9, /*edge_factor=*/8, 0.57, 0.19, 0.19,
                   /*seed=*/3, {1.0f, 6.0f});
}

TEST(SyncThreads, PageRankBitIdenticalAcrossClusterThreads) {
  const auto eq = [](const algos::PageRankDelta::VData& a,
                     const algos::PageRankDelta::VData& b) {
    return a.rank == b.rank && a.pending_delta == b.pending_delta;
  };
  expect_sync_thread_invariant(directed_graph(),
                               algos::PageRankDelta{.tol = 1e-4}, eq);
}

TEST(SyncThreads, SsspBitIdenticalAcrossClusterThreads) {
  expect_sync_thread_invariant(
      directed_graph(), algos::SSSP{.source = 0},
      [](const algos::SSSP::VData& a, const algos::SSSP::VData& b) {
        return a.dist == b.dist;
      });
}

TEST(SyncThreads, CcBitIdenticalAcrossClusterThreads) {
  expect_sync_thread_invariant(
      directed_graph().symmetrized(), algos::ConnectedComponents{},
      [](const algos::ConnectedComponents::VData& a,
         const algos::ConnectedComponents::VData& b) {
        return a.label == b.label;
      });
}

TEST(SyncThreads, KcoreBitIdenticalAcrossClusterThreads) {
  expect_sync_thread_invariant(
      directed_graph().symmetrized(), algos::KCore{.k = 6},
      [](const algos::KCore::VData& a, const algos::KCore::VData& b) {
        return a.core == b.core && a.deleted == b.deleted;
      });
}

// Lazy-block runs every phase owner-only with plain flag writes: the
// Stage-1 Gauss-Seidel sweeps, the coherency-point sweeps, and the delta
// exchange's pack, coordinate and unpack, whose only cross-machine reads
// are bucket and outbox reads after a join. PageRank on an edge-split graph
// drives the exchange hard; SSSP on a road lattice spends its time in
// Stage 1's sparse sweeps.
TEST(LazyBlockThreads, SplitPageRankBitIdenticalAcrossClusterThreads) {
  const auto dg = testsupport::build_dgraph(
      directed_graph(), 8, partition::CutKind::kCoordinated, 7,
      /*split=*/true);
  ASSERT_GT(dg.parallel_edge_copies(), 0u);
  expect_thread_invariant(
      dg, {.kind = EngineKind::kLazyBlock}, algos::PageRankDelta{.tol = 1e-4},
      [](const algos::PageRankDelta::VData& a,
         const algos::PageRankDelta::VData& b) {
        return a.rank == b.rank && a.pending_delta == b.pending_delta;
      });
}

TEST(LazyBlockThreads, RoadSsspBitIdenticalAcrossClusterThreads) {
  const Graph g = gen::road_lattice(40, 40, 0.3, 5, {1.0f, 64.0f});
  const sim::SimMetrics m = expect_thread_invariant(
      testsupport::build_dgraph(g, 8), {.kind = EngineKind::kLazyBlock},
      algos::SSSP{.source = 0},
      [](const algos::SSSP::VData& a, const algos::SSSP::VData& b) {
        return a.dist == b.dist;
      });
  EXPECT_GT(m.local_subiterations, 0u);
}

// Forced mirrors-to-master k-core: every exchange packs deltas on the
// replica machines, folds them into per-master totals on the coordinators
// while they fill their up/down wire-codec streams, and unpacks them
// through Inverse (non-idempotent Sum) on the replica machines.
TEST(LazyBlockThreads, ForcedM2mKcoreBitIdenticalAcrossClusterThreads) {
  const sim::SimMetrics m = expect_thread_invariant(
      testsupport::build_dgraph(directed_graph().symmetrized(), 8),
      {.kind = EngineKind::kLazyBlock,
       .comm_policy = engine::CommModePolicy::kForceMirrorsToMaster},
      algos::KCore{.k = 6},
      [](const algos::KCore::VData& a, const algos::KCore::VData& b) {
        return a.core == b.core && a.deleted == b.deleted;
      });
  EXPECT_GT(m.m2m_exchanges, 0u);
  EXPECT_EQ(m.a2a_exchanges, 0u);
  EXPECT_GT(m.exchange_bytes_wire, 0u);
}

// Four diffusion lanes batched into one run: every exchanged delta is a wide
// LaneMsg that the replica machines pack by value, the coordinators fold in
// machine order and the replicas unpack through the lane-wise Inverse.
TEST(LazyBlockThreads, BatchedDiffusionBitIdenticalAcrossClusterThreads) {
  using BP = serve::BatchedProgram<algos::LinearDiffusion, 4>;
  BP prog;
  const vid_t seeds[] = {0, 7, 100, 333};
  for (std::size_t i = 0; i < 4; ++i) {
    prog.lanes[i] = {.alpha = 0.6, .seed = seeds[i], .tol = 1e-6};
  }
  const auto dg = testsupport::build_dgraph(
      directed_graph(), 8, partition::CutKind::kCoordinated, 7,
      /*split=*/true);
  const sim::SimMetrics m = expect_thread_invariant(
      dg, {.kind = EngineKind::kLazyBlock}, prog,
      [](const BP::VData& a, const BP::VData& b) {
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (a[i].value != b[i].value ||
              a[i].pending_delta != b[i].pending_delta) {
            return false;
          }
        }
        return true;
      });
  EXPECT_GT(m.exchange_bytes_wire, 0u);
}

// The plan layer's cluster takes the executor's thread budget: a lowering
// at 4 threads (including the fused cc+kcore group) must reproduce the
// serial lowering's stage digests and metrics exactly.
TEST(ExecutorThreads, SameDigestsAndMetricsAtOneAndFourThreads) {
  const Graph g = directed_graph();
  const plan::Pipeline pipe =
      plan::Pipeline::parse("cc|kcore(8)|pagerank(0.001)");
  plan::LowerOptions opts;
  opts.default_engine = EngineKind::kSync;
  std::vector<plan::PipelineResult> results;
  for (const std::size_t threads : {1u, 4u}) {
    partition::ArtifactCache cache;
    plan::Executor ex(g, 8, {.kind = partition::CutKind::kCoordinated},
                      &cache, threads);
    results.push_back(ex.run(pipe, opts));
  }
  const plan::PipelineResult& a = results[0];
  const plan::PipelineResult& b = results[1];
  ASSERT_TRUE(a.converged);
  ASSERT_EQ(a.stages.size(), 3u);
  EXPECT_TRUE(a.stages[0].fused);
  EXPECT_TRUE(a.stages[1].fused);
  EXPECT_EQ(a.engine_runs, 2u);
  EXPECT_EQ(b.engine_runs, a.engine_runs);
  ASSERT_EQ(b.outcomes.size(), a.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(b.outcomes[i].digest, a.outcomes[i].digest) << "stage " << i;
    EXPECT_EQ(b.outcomes[i].supersteps, a.outcomes[i].supersteps)
        << "stage " << i;
  }
  expect_same_metrics(b.metrics, a.metrics, "executor threads 4");
}

// parallel_machines never runs more bodies at once than ClusterConfig::
// threads, whatever the width of the shared pool.
TEST(Cluster, ThreadsCapsFanOut) {
  for (const std::size_t cap : {1u, 2u, 3u}) {
    sim::Cluster cl({.machines = 24, .threads = cap});
    std::atomic<int> running{0}, high{0}, done{0};
    cl.parallel_machines([&](machine_t) {
      const int now = running.fetch_add(1) + 1;
      int seen = high.load();
      while (now > seen && !high.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      running.fetch_sub(1);
      done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 24) << "cap " << cap;
    EXPECT_LE(high.load(), static_cast<int>(cap)) << "cap " << cap;
    if (cap > 1 && std::thread::hardware_concurrency() > 1) {
      EXPECT_GE(high.load(), 2) << "cap " << cap << " never ran in parallel";
    }
  }
}

}  // namespace
}  // namespace lazygraph
