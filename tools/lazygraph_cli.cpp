// lazygraph_cli — run any algorithm on any engine over a dataset analogue or
// an edge-list file, printing results, run metrics, and (optionally) the
// stage-level trace.
//
//   lazygraph_cli --algo=sssp --engine=lazy-block --dataset=roadusa-like
//                 --machines=16 --scale=0.2
//   lazygraph_cli --algo=pagerank --engine=sync --graph=my_edges.txt
//   lazygraph_cli --algo=pagerank --trace=run.jsonl --trace-summary=10
//
// Options:
//   --algo=pagerank|sssp|cc|kcore|bfs|widest|diffusion   (default pagerank)
//   --engine=sync|async|lazy-block|lazy-vertex           (default lazy-block)
//   --dataset=<table1 analogue name> | --graph=<edge-list path>
//   --machines=N --scale=S --cut=random|grid|coordinated|hybrid
//   --split=true|false  --source=V  --k=K  --tol=T  --top=N  --seed=S
//   --alpha=A --seed_bias=B  diffusion damping and seed bias
//   --ingest-threads=N   setup-path threads for load/partition/build, and
//                        with --pipeline the executor's machine fan-out
//                        (default 1; 0 = hardware concurrency; the output is
//                        bit-identical at any value)
//   --trace[=FILE]       write the run's JSONL trace to FILE (trace.jsonl)
//   --trace-summary[=K]  print the top-K most expensive spans (default 10)
//                        plus per-kind totals and the superstep decision log
//   --perf-report[=FILE] print the per-phase perf report (simulated seconds,
//                        share, wire vs raw traffic per protocol phase, plus
//                        run-wide counters: compression ratio, sweep work,
//                        peak state bytes). With =FILE, also write the
//                        report as a single JSON object to FILE — the format
//                        tools/bench_gate.py consumes.
//   --kill=m@k[:r]       fault injection: kill machine m at coherency point
//                        k, restart after r barriers (default 1); several
//                        events comma-joined, e.g. --kill=3@4:2,1@7. The
//                        recovered run converges bit-identically to the
//                        failure-free one; recovery cost shows up in the
//                        metrics (recoveries, guard/recovery MB) and, with
//                        --trace-summary, a per-recovery table.
//
// Pipeline mode (record-then-lower; see src/plan/):
//   --pipeline="kcore(5)|cc|pagerank(0.001)"
//       runs the recorded stages through plan::Executor: one partition/build
//       per graph view, stage handoffs (k-core survivors scope cc, cc(seed)
//       scopes pagerank, traversals scope to the reached set), carried
//       frontiers, warm-started pagerank refinement, and fusion of
//       compatible adjacent stages. Grammar: stages joined by '|', each
//       name[(args)][@engine]; see plan::Pipeline::parse. --engine sets the
//       default engine for stages without an @engine suffix.
//   --sequential=true    lower with every reuse mechanism disabled (the
//                        bit-identical reference lowering)
//
// Any other flag is rejected with exit code 1.
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>

#include "lazygraph.hpp"

using namespace lazygraph;

namespace {

// Upper bound for flags stored in 32-bit fields.
constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

partition::CutKind parse_cut(const std::string& s) {
  if (s == "random") return partition::CutKind::kRandom;
  if (s == "grid") return partition::CutKind::kGrid;
  if (s == "coordinated") return partition::CutKind::kCoordinated;
  if (s == "oblivious") return partition::CutKind::kOblivious;
  if (s == "hybrid") return partition::CutKind::kHybrid;
  throw std::invalid_argument("unknown cut: " + s);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  opts.reject_unknown({"algo", "engine", "dataset", "graph", "machines",
                       "scale", "cut", "seed", "split", "source", "k", "tol",
                       "top", "alpha", "seed_bias", "ingest-threads", "trace",
                       "trace-summary", "perf-report", "kill", "pipeline",
                       "sequential"});
  const std::string algo = opts.get("algo", "pagerank");
  const auto kind =
      engine::engine_kind_from_string(opts.get("engine", "lazy-block"));
  const auto machines =
      static_cast<machine_t>(opts.get_int("machines", 16, 1, 64));
  const auto cut = parse_cut(opts.get("cut", "coordinated"));
  const bool want_split =
      opts.get_bool("split", kind == engine::EngineKind::kLazyBlock ||
                                 kind == engine::EngineKind::kLazyVertex);

  const auto ingest_threads =
      static_cast<std::size_t>(opts.get_int("ingest-threads", 1, 0));

  sim::Tracer tracer;
  const bool want_perf = opts.has("perf-report");
  const bool want_trace =
      opts.has("trace") || opts.has("trace-summary") || want_perf;

  // Load or generate the user-view graph.
  Graph g;
  std::string graph_name;
  const auto t_ingest = std::chrono::steady_clock::now();
  if (opts.has("graph")) {
    graph_name = opts.get("graph", "");
    g = io::read_edge_list_file(graph_name, {.threads = ingest_threads});
  } else {
    graph_name = opts.get("dataset", "webgoogle-like");
    g = datasets::make(datasets::spec_by_name(graph_name),
                       opts.get_double("scale", 0.2));
  }
  // Pipeline mode: hand the (directed) user graph to the plan executor,
  // which derives the per-stage views itself.
  if (opts.has("pipeline")) {
    const double pipeline_ingest_wall = seconds_since(t_ingest);
    std::cout << graph_name << ": " << g.num_vertices() << " vertices, "
              << g.num_edges() << " edges, E/V="
              << Table::num(g.edge_vertex_ratio(), 2) << "\n";
    const plan::Pipeline pipe = plan::Pipeline::parse(opts.get("pipeline", ""));
    if (want_trace) {
      tracer.record_setup({.kind = sim::SpanKind::kIngest,
                           .duration_seconds = pipeline_ingest_wall,
                           .items = g.num_edges()});
    }
    plan::LowerOptions lopts;
    lopts.default_engine = kind;
    if (opts.get_bool("split", false)) lopts.split = {.t_extra = 0.001};
    if (opts.get_bool("sequential", false)) {
      lopts = plan::sequential_baseline(lopts);
    }
    if (want_trace) lopts.tracer = &tracer;

    plan::Executor exec(
        std::move(g), machines,
        {.kind = cut,
         .seed = static_cast<std::uint64_t>(opts.get_int("seed", 7, 0)),
         .threads = ingest_threads},
        &partition::ArtifactCache::global(), ingest_threads);
    const plan::PipelineResult res = exec.run(pipe, lopts);

    std::cout << "pipeline: " << pipe.to_string() << "\n"
              << "lowered: " << res.engine_runs << " engine run(s), "
              << res.partitions_computed << " partition(s), "
              << res.builds_computed << " build(s)"
              << (opts.get_bool("sequential", false) ? " [sequential]" : "")
              << "\n";
    Table table({"stage", "engine", "group", "mode", "scope", "frontier",
                 "supersteps", "sim_s", "scanned", "syncs", "MB"});
    for (const plan::StageReport& r : res.stages) {
      std::string mode = r.fused ? "fused" : r.warm ? "warm" : "solo";
      if (r.reused) mode = "reused";
      table.add_row({r.stage, to_string(r.engine), Table::num(r.group), mode,
                     Table::num(r.scope_size), Table::num(r.carried_frontier),
                     Table::num(r.supersteps), Table::num(r.sim_seconds, 4),
                     Table::num(r.sweep_scanned), Table::num(r.global_syncs),
                     Table::num(static_cast<double>(r.network_bytes) /
                                    (1024.0 * 1024.0),
                                2)});
    }
    table.print(std::cout);
    res.metrics.print(std::cout, "pipeline");

    if (want_trace) tracer.set_run_info("plan", pipe.to_string());
    if (opts.has("trace")) {
      const std::string path = opts.get("trace", "trace.jsonl");
      std::ofstream os(path);
      require(os.good(), "cannot open trace output: " + path);
      tracer.write_jsonl(os);
      std::cout << "trace: " << tracer.spans().size() << " spans, "
                << tracer.setup_spans().size() << " setup/lowering spans -> "
                << path << "\n";
    }
    if (opts.has("trace-summary") && !tracer.setup_spans().empty()) {
      std::cout << "\nlowering decisions (wall-clock; not simulated time):\n";
      tracer.setup_table().print(std::cout);
    }
    return res.converged ? 0 : 2;
  }

  const bool symmetrize = (algo == "cc" || algo == "kcore");
  if (symmetrize) g = g.symmetrized();
  const double ingest_wall = seconds_since(t_ingest);
  std::cout << graph_name << ": " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges, E/V="
            << Table::num(g.edge_vertex_ratio(), 2) << "\n";

  // Partition (+ optional edge splitting for the lazy engines).
  const auto t_partition = std::chrono::steady_clock::now();
  const auto assignment = partition::assign_edges(
      g, machines,
      {.kind = cut,
       .seed = static_cast<std::uint64_t>(opts.get_int("seed", 7, 0)),
       .threads = ingest_threads});
  const double partition_wall = seconds_since(t_partition);
  std::vector<std::uint64_t> split;
  const bool lazy_engine = kind == engine::EngineKind::kLazyBlock ||
                           kind == engine::EngineKind::kLazyVertex;
  if (want_split && lazy_engine) {
    split = partition::select_split_edges(g, machines, {});
  }
  const auto t_build = std::chrono::steady_clock::now();
  const auto dg = partition::DistributedGraph::build(g, machines, assignment,
                                                     split, ingest_threads);
  const double build_wall = seconds_since(t_build);
  std::cout << "partition: " << to_string(cut) << " over " << machines
            << " machines, lambda=" << Table::num(dg.replication_factor(), 2)
            << ", parallel-edge copies=" << dg.parallel_edge_copies() << "\n";

  if (want_trace) {
    tracer.record_setup({.kind = sim::SpanKind::kIngest,
                         .duration_seconds = ingest_wall,
                         .items = g.num_edges()});
    tracer.record_setup({.kind = sim::SpanKind::kPartition,
                         .duration_seconds = partition_wall,
                         .items = g.num_edges()});
    tracer.record_setup({.kind = sim::SpanKind::kBuild,
                         .duration_seconds = build_wall,
                         .items = dg.total_local_edges()});
  }

  sim::Cluster cluster(
      {machines, {}, 0, sim::FailurePlan::parse(opts.get("kill", ""))});

  engine::RunConfig cfg;
  cfg.kind = kind;
  if (want_trace) cfg.tracer = &tracer;

  const auto source =
      static_cast<vid_t>(opts.get_int("source", 0, 0, kMaxU32));
  const auto top = static_cast<std::size_t>(opts.get_int("top", 5, 0));

  bool converged = false;
  std::uint64_t supersteps = 0;
  sim::SimMetrics run_metrics;  // RunResult metrics (includes state_bytes)
  std::vector<std::pair<double, vid_t>> ranked;  // (score, vertex) for --top
  const auto t_run = std::chrono::steady_clock::now();
  if (algo == "pagerank") {
    const auto r = engine::run(
        cfg, dg, algos::PageRankDelta{.tol = opts.get_double("tol", 1e-3)},
        cluster);
    converged = r.converged;
    supersteps = r.supersteps;
    run_metrics = r.metrics;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ranked.push_back({r.data[v].rank, v});
  } else if (algo == "sssp") {
    const auto r = engine::run(cfg, dg, algos::SSSP{.source = source}, cluster);
    converged = r.converged;
    supersteps = r.supersteps;
    run_metrics = r.metrics;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ranked.push_back({-r.data[v].dist, v});
  } else if (algo == "bfs") {
    const auto r = engine::run(cfg, dg, algos::BFS{.source = source}, cluster);
    converged = r.converged;
    supersteps = r.supersteps;
    run_metrics = r.metrics;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ranked.push_back({-static_cast<double>(r.data[v].depth), v});
  } else if (algo == "cc") {
    const auto r = engine::run(cfg, dg, algos::ConnectedComponents{}, cluster);
    converged = r.converged;
    supersteps = r.supersteps;
    run_metrics = r.metrics;
    std::map<vid_t, std::size_t> sizes;
    for (vid_t v = 0; v < g.num_vertices(); ++v) ++sizes[r.data[v].label];
    std::cout << "components: " << sizes.size() << "\n";
  } else if (algo == "kcore") {
    const auto k =
        static_cast<std::uint32_t>(opts.get_int("k", 5, 0, kMaxU32));
    const auto r = engine::run(cfg, dg, algos::KCore{.k = k}, cluster);
    converged = r.converged;
    supersteps = r.supersteps;
    run_metrics = r.metrics;
    std::size_t survivors = 0;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      survivors += !r.data[v].deleted;
    std::cout << k << "-core size: " << survivors << "\n";
  } else if (algo == "widest") {
    const auto r =
        engine::run(cfg, dg, algos::WidestPath{.source = source}, cluster);
    converged = r.converged;
    supersteps = r.supersteps;
    run_metrics = r.metrics;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ranked.push_back({r.data[v].capacity, v});
  } else if (algo == "diffusion") {
    const algos::LinearDiffusion prog{
        .alpha = opts.get_double("alpha", 0.6),
        .seed = source,
        .seed_bias = opts.get_double("seed_bias", 1.0)};
    const auto r = engine::run(cfg, dg, prog, cluster);
    converged = r.converged;
    supersteps = r.supersteps;
    run_metrics = r.metrics;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ranked.push_back({r.data[v].value, v});
  } else {
    throw std::invalid_argument("unknown algo: " + algo);
  }

  const double run_wall = seconds_since(t_run);
  std::cout << "engine: " << to_string(kind)
            << ", converged=" << converged << ", supersteps=" << supersteps
            << "\n";
  // Print the RunResult copy: it carries state_bytes (stamped at
  // finalize_result), which the live cluster metrics never see.
  run_metrics.setup_seconds = ingest_wall + partition_wall + build_wall;
  run_metrics.print(std::cout, algo);

  if (want_trace) tracer.set_run_info(to_string(kind), algo);
  if (opts.has("trace")) {
    const std::string path = opts.get("trace", "trace.jsonl");
    std::ofstream os(path);
    require(os.good(), "cannot open trace output: " + path);
    tracer.write_jsonl(os);
    std::cout << "trace: " << tracer.spans().size() << " spans, "
              << tracer.snapshots().size() << " superstep snapshots -> "
              << path << "\n";
  }
  if (opts.has("trace-summary")) {
    auto k = static_cast<std::size_t>(opts.get_int("trace-summary", 10, 0));
    if (k == 0) k = 10;  // non-numeric values parse as 0
    if (!tracer.setup_spans().empty()) {
      std::cout << "\nsetup stages (wall-clock, " << ingest_threads
                << " thread(s); not simulated time):\n";
      tracer.setup_table().print(std::cout);
    }
    std::cout << "\ntop-" << k << " spans by simulated time:\n";
    tracer.top_spans_table(k).print(std::cout);
    std::cout << "\nper-kind totals:\n";
    tracer.kind_summary_table().print(std::cout);
    if (!tracer.snapshots().empty()) {
      std::cout << "\nsuperstep decisions:\n";
      tracer.supersteps_table().print(std::cout);
    }
    if (!tracer.recoveries().empty()) {
      std::cout << "\nrecoveries:\n";
      tracer.recoveries_table().print(std::cout);
    }
  }
  if (want_perf) {
    const sim::PerfReport report =
        sim::build_perf_report(tracer, run_metrics, run_wall);
    std::cout << "\nperf report (" << to_string(kind) << "/" << algo << "):\n";
    report.table().print(std::cout);
    std::cout << "\nrun totals:\n";
    report.totals_table().print(std::cout);
    const std::string path = opts.get("perf-report", "");
    if (!path.empty()) {
      std::ofstream os(path);
      require(os.good(), "cannot open perf-report output: " + path);
      report.write_json(os);
      std::cout << "perf report JSON -> " << path << "\n";
    }
  }

  if (!ranked.empty() && top > 0) {
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<long>(
                                           std::min(top, ranked.size())),
                      ranked.end(), std::greater<>());
    std::cout << "top vertices:";
    for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
      std::cout << " v" << ranked[i].second << "="
                << Table::num(std::abs(ranked[i].first), 3);
    }
    std::cout << "\n";
  }
  return converged ? 0 : 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
