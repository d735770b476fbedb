// Substrate microbenchmarks (google-benchmark): generator throughput,
// partitioner throughput, distributed-graph build, and one engine superstep.
// These are wall-clock benchmarks of the reproduction itself, not paper
// figures.
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <vector>

#include "lazygraph.hpp"

namespace {

using namespace lazygraph;

const Graph& test_graph() {
  static const Graph g = gen::rmat(14, 12, 0.55, 0.2, 0.2, 7, {1.0f, 8.0f});
  return g;
}

void BM_GenerateRmat(benchmark::State& state) {
  const auto scale = static_cast<vid_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::rmat(scale, 8, 0.57, 0.19, 0.19, 11));
  }
  state.SetItemsProcessed(state.iterations() * (int64_t{1} << state.range(0)) *
                          8);
}
BENCHMARK(BM_GenerateRmat)->Arg(12)->Arg(14);

void BM_GenerateRoad(benchmark::State& state) {
  const auto side = static_cast<vid_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::road_lattice(side, side, 0.3, 11));
  }
}
BENCHMARK(BM_GenerateRoad)->Arg(100)->Arg(200);

void BM_Partition(benchmark::State& state) {
  const Graph& g = test_graph();
  const auto kind = static_cast<partition::CutKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partition::assign_edges(g, 48, {kind, 1}));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Partition)
    ->Arg(static_cast<int>(partition::CutKind::kRandom))
    ->Arg(static_cast<int>(partition::CutKind::kGrid))
    ->Arg(static_cast<int>(partition::CutKind::kCoordinated))
    ->Arg(static_cast<int>(partition::CutKind::kHybrid));

void BM_BuildDistributedGraph(benchmark::State& state) {
  const Graph& g = test_graph();
  const auto assignment = partition::assign_edges(
      g, 48, {partition::CutKind::kCoordinated, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partition::DistributedGraph::build(g, 48, assignment));
  }
}
BENCHMARK(BM_BuildDistributedGraph);

void BM_LazyPagerank(benchmark::State& state) {
  const Graph& g = test_graph();
  const auto machines = static_cast<machine_t>(state.range(0));
  const auto assignment = partition::assign_edges(
      g, machines, {partition::CutKind::kCoordinated, 1});
  const auto dg = partition::DistributedGraph::build(g, machines, assignment);
  for (auto _ : state) {
    sim::Cluster cluster({machines, {}, 0});
    benchmark::DoNotOptimize(
        engine::run({.kind = engine::EngineKind::kLazyBlock}, dg,
                    algos::PageRankDelta{}, cluster));
  }
}
BENCHMARK(BM_LazyPagerank)->Arg(8)->Arg(48)->Unit(benchmark::kMillisecond);

// One sweep cell body (BM_SnapshotSweep, BM_GaussSeidelSweep): rebuilds
// pristine state each iteration (outside the timed region) so every sweep
// sees the identical frontier — seeded at every stride-th vertex — and the
// recorded counters are iteration-count-invariant.
template <class P>
engine::SweepCounters sweep_cell(benchmark::State& state, const P& prog,
                                 lvid_t stride, engine::SweepMode mode) {
  const Graph& g = test_graph();
  const machine_t machines = 1;
  const auto assignment = partition::assign_edges(
      g, machines, {partition::CutKind::kCoordinated, 1});
  const auto dg = partition::DistributedGraph::build(g, machines, assignment);
  const partition::Part& part = dg.part(0);
  sim::Cluster cluster({machines, {}, 1});
  auto states = engine::make_states(dg, prog, cluster);
  engine::SweepCounters last = {};
  for (auto _ : state) {
    state.PauseTiming();
    states = engine::make_states(dg, prog, cluster);
    for (lvid_t v = 0; v < part.num_local(); v += stride) {
      // 2.0 (not 1.0): pagerank-delta's init pending_delta is -0.85, and an
      // accum of exactly 1.0 would cancel it — no vertex would scatter and
      // the dense cell would push nothing.
      engine::deposit_msg(prog, states[0], v, 2.0);
    }
    state.ResumeTiming();
    last = engine::local_sweep(prog, part, states[0], mode);
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(part.num_local_edges()));
  return last;
}

// Runs one sweep cell: arg is the frontier shape — 0 = dense
// (pagerank-delta, every vertex seeded), 1 = sparse (sssp, every 128th
// vertex seeded). Items/sec ~ swept edges/sec; the work counters are
// deterministic, so the bench gate pins them exactly.
void run_sweep_cell(benchmark::State& state, engine::SweepMode mode) {
  engine::SweepCounters last = {};
  if (state.range(0) == 0) {
    last = sweep_cell(state, algos::PageRankDelta{}, 1, mode);
  } else {
    last = sweep_cell(state, algos::SSSP{.source = 0}, 128, mode);
  }
  state.counters["sweep_work"] = static_cast<double>(last.work);
  state.counters["sweep_applies"] = static_cast<double>(last.applies);
  state.counters["sweep_scanned"] = static_cast<double>(last.scanned);
}

// The snapshot-sweep cell (CI uploads its JSON as BENCH_sweep.json): one
// serial snapshot apply+scatter sweep on a single machine holding the full
// test graph.
void BM_SnapshotSweep(benchmark::State& state) {
  run_sweep_cell(state, engine::SweepMode::kSnapshot);
}
BENCHMARK(BM_SnapshotSweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The Gauss-Seidel cell (rides in BENCH_sweep.json next to the snapshot
// cell): the same two frontiers swept with Gauss-Seidel visibility, as in
// lazy-block's Stage 1. Deposits ahead of the cursor join the sweep, so the
// sparse SSSP frontier spreads far past its 128 seeds within the one sweep.
void BM_GaussSeidelSweep(benchmark::State& state) {
  run_sweep_cell(state, engine::SweepMode::kGaussSeidel);
}
BENCHMARK(BM_GaussSeidelSweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The exchange-codec cell (rides in BENCH_sweep.json next to the sweep
// cell): a full lazy-block pagerank run at 8 machines, arg = the
// coordinated (0) vs hybrid (1) cut. The counters pin both sides of the
// wire codec — exchange_MB_raw is the uncompressed-fallback volume of the
// same records the delta-varint codec actually shipped (exchange_MB_wire,
// what comm time is priced on) — plus the peak slab footprint. Acceptance
// (gated as a shape check): wire strictly below raw on every row.
void BM_ExchangeCodec(benchmark::State& state) {
  const auto cut = state.range(0) != 0 ? partition::CutKind::kHybrid
                                       : partition::CutKind::kCoordinated;
  const Graph& g = test_graph();
  const machine_t machines = 8;
  const auto assignment = partition::assign_edges(g, machines, {cut, 1});
  const auto dg = partition::DistributedGraph::build(g, machines, assignment);
  sim::SimMetrics last;
  std::uint64_t supersteps = 0;
  for (auto _ : state) {
    sim::Cluster cluster({machines, {}, 0});
    const auto r = engine::run({.kind = engine::EngineKind::kLazyBlock}, dg,
                               algos::PageRankDelta{}, cluster);
    benchmark::DoNotOptimize(r);
    last = r.metrics;
    supersteps = r.supersteps;
  }
  const double mb = 1024.0 * 1024.0;
  state.counters["sim_seconds"] = last.sim_seconds();
  state.counters["supersteps"] = static_cast<double>(supersteps);
  state.counters["exchange_MB_raw"] =
      static_cast<double>(last.exchange_bytes_raw) / mb;
  state.counters["exchange_MB_wire"] =
      static_cast<double>(last.exchange_bytes_wire) / mb;
  state.counters["state_MB"] = static_cast<double>(last.state_bytes) / mb;
}
BENCHMARK(BM_ExchangeCodec)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The ingest-scaling cell (CI uploads its JSON as BENCH_build.json): the
// whole setup pipeline — parse an edge-list, hybrid-cut it, compute the
// replication factor, and build the distributed graph — on the largest
// generated bench graph, at 1/2/4/8 setup threads. Every stage is
// bit-identical across thread counts (tests/test_ingest_parallel.cpp), so
// this measures pure execution scaling. Items/sec ~ edges through the
// pipeline per second.
void BM_IngestScaling(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  static const std::string text = [] {
    std::ostringstream os;
    io::write_edge_list(test_graph(), os);
    return os.str();
  }();
  const machine_t machines = 48;
  double rf = 0.0;
  for (auto _ : state) {
    // A fresh Graph each iteration: degree/hash caches must not leak work
    // across iterations — recomputing degrees is part of the setup cost.
    Graph g = io::read_edge_list_text(text, {.threads = threads});
    const auto assignment = partition::assign_edges(
        g, machines,
        {.kind = partition::CutKind::kHybrid, .seed = 1, .threads = threads});
    rf = partition::replication_factor(g, assignment, machines, threads);
    benchmark::DoNotOptimize(rf);
    benchmark::DoNotOptimize(partition::DistributedGraph::build(
        g, machines, assignment, {}, threads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(test_graph().num_edges()));
  // Identical across thread counts (the whole pipeline is bit-deterministic,
  // tests/test_ingest_parallel.cpp) — an exact cell for the bench gate.
  state.counters["replication_factor"] = rf;
}
BENCHMARK(BM_IngestScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The plan-lowering cell (CI uploads its JSON as BENCH_pipeline.json): the
// flagship pipeline `cc |> kcore(8) |> pagerank` lowered sequentially
// (arg 0: per-stage cold partitions/builds, full init scans, no fusion)
// versus composed (arg 1: artifact cache, cc+kcore fused into one engine
// run, k-core's survivors carried as pagerank's initial frontier). Both
// lowerings produce bit-identical results — tests/test_plan.cpp holds that
// invariant — so the counters isolate pure redundant work: the composed row
// must show fewer partitions/builds/engine-runs and lower sweep_scanned.
void BM_PipelineFusion(benchmark::State& state) {
  const bool composed = state.range(0) != 0;
  static const Graph& g = []() -> const Graph& {
    static const Graph pg = gen::rmat(11, 10, 0.57, 0.19, 0.19, 7, {1.0f, 4.0f});
    return pg;
  }();
  const machine_t machines = 8;
  const plan::Pipeline pipe =
      plan::Pipeline::parse("cc|kcore(8)|pagerank(0.001)");
  plan::LowerOptions lopts;
  if (!composed) lopts = plan::sequential_baseline(lopts);
  plan::PipelineResult last;
  for (auto _ : state) {
    // Fresh cache + executor per iteration: the lowering's own reuse (not
    // cross-iteration memo replay) is what gets measured.
    partition::ArtifactCache cache;
    plan::Executor ex(g, machines,
                      {.kind = partition::CutKind::kCoordinated, .seed = 1},
                      composed ? &cache : nullptr);
    last = ex.run(pipe, lopts);
    benchmark::DoNotOptimize(last);
  }
  state.counters["partitions"] =
      static_cast<double>(last.partitions_computed);
  state.counters["builds"] = static_cast<double>(last.builds_computed);
  state.counters["engine_runs"] = static_cast<double>(last.engine_runs);
  state.counters["global_syncs"] =
      static_cast<double>(last.metrics.global_syncs);
  state.counters["sweep_scanned"] =
      static_cast<double>(last.metrics.sweep_scanned);
  state.counters["sim_seconds"] = last.metrics.sim_seconds();
}
BENCHMARK(BM_PipelineFusion)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The recovery cell (CI uploads its JSON as BENCH_recovery.json): lazy-block
// pagerank on the test graph at 8 machines, failure-free (arg 0) versus with
// machine 3 killed at coherency point 4 and restarted after 2 barriers
// (arg 1). Both runs converge bit-identically — tests/test_recovery.cpp
// holds that invariant — so the sim_seconds delta between the rows IS the
// recovery overhead (guard delta-log upkeep + mirror/log rebuild + downtime
// barriers), and the counters break it down.
void BM_Recovery(benchmark::State& state) {
  const bool with_failure = state.range(0) != 0;
  const Graph& g = test_graph();
  const machine_t machines = 8;
  const auto assignment = partition::assign_edges(
      g, machines, {partition::CutKind::kCoordinated, 1});
  const auto dg = partition::DistributedGraph::build(g, machines, assignment);
  const sim::FailurePlan plan =
      with_failure ? sim::FailurePlan::parse("3@4:2") : sim::FailurePlan{};
  sim::SimMetrics last;
  std::uint64_t supersteps = 0;
  for (auto _ : state) {
    sim::Cluster cluster({machines, {}, 0, plan});
    const auto r = engine::run({.kind = engine::EngineKind::kLazyBlock}, dg,
                               algos::PageRankDelta{}, cluster);
    benchmark::DoNotOptimize(r);
    last = r.metrics;
    supersteps = r.supersteps;
  }
  state.counters["sim_seconds"] = last.sim_seconds();
  state.counters["supersteps"] = static_cast<double>(supersteps);
  state.counters["recoveries"] = static_cast<double>(last.recoveries);
  state.counters["guard_MB"] =
      static_cast<double>(last.guard_bytes) / (1024.0 * 1024.0);
  state.counters["recovery_MB"] =
      static_cast<double>(last.recovery_bytes) / (1024.0 * 1024.0);
}
BENCHMARK(BM_Recovery)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The serving cell (CI uploads its JSON as BENCH_serve.json): one fixed
// 48-query mixed-family Zipf stream served by the multi-tenant QueryServer
// over a shared lazy-block engine, at max_lanes 1 (no batching) / 4 / 16.
// Every lane is bit-identical to its solo run — tests/test_serve.cpp holds
// that invariant — so the rows isolate pure batching benefit: qps_sim and
// the latency percentiles ride the deterministic virtual clock (identical
// on every host, gateable exactly), while wall time measures the host.
// Acceptance: qps_sim at max_lanes=16 strictly above max_lanes=1.
void BM_ServeThroughput(benchmark::State& state) {
  const auto max_lanes = static_cast<std::uint32_t>(state.range(0));
  static const Graph& g = []() -> const Graph& {
    static const Graph sg =
        gen::rmat(11, 10, 0.57, 0.19, 0.19, 7, {1.0f, 4.0f});
    return sg;
  }();
  const machine_t machines = 8;
  static const auto dg =
      std::make_shared<const partition::DistributedGraph>(
          partition::DistributedGraph::build(
              g, machines,
              partition::assign_edges(
                  g, machines, {partition::CutKind::kCoordinated, 1})));
  static const std::vector<serve::Query> queries = [] {
    serve::TrafficOptions t;
    t.seed = 20260808;
    t.num_queries = 48;
    t.rate_qps = 400.0;  // fast enough arrivals that wide batches can fill
    t.zipf_skew = 1.0;
    t.tenants = 4;
    return serve::make_traffic(t, g.num_vertices());
  }();
  serve::ServeOptions o;
  o.run.kind = engine::EngineKind::kLazyBlock;
  o.policy.max_lanes = max_lanes;
  o.policy.max_wait_seconds = 0.05;
  o.cluster_threads = 1;
  serve::ServeReport rep;
  for (auto _ : state) {
    serve::QueryServer server(dg, o);
    rep = server.serve(queries);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["qps_sim"] = rep.queries_per_second();
  state.counters["batches"] = static_cast<double>(rep.batches);
  state.counters["lat_p50"] = rep.latency_percentile(50.0);
  state.counters["lat_p90"] = rep.latency_percentile(90.0);
  state.counters["lat_p99"] = rep.latency_percentile(99.0);
  state.counters["queue_p99"] = rep.queue_percentile(99.0);
  state.counters["service_p50"] = rep.service_percentile(50.0);
}
BENCHMARK(BM_ServeThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_ReferencePagerank(benchmark::State& state) {
  const Graph& g = test_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::pagerank(g, 1e-6, 100));
  }
}
BENCHMARK(BM_ReferencePagerank)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
