// lazygraph_serve — the multi-tenant query server over a cache-resident
// DistributedGraph: generate (or accept) an open-loop query stream, pack
// same-family queries into batched multi-source engine runs, and report
// throughput, queue/service/latency percentiles, per-tenant counts, and
// artifact-cache behavior.
//
//   lazygraph_serve --dataset=webgoogle-like --scale=0.1 --machines=8
//                   --queries=128 --rate=200 --max-lanes=16
//   lazygraph_serve --graph=my_edges.txt --engine=sync --verify=true
//
// Options:
//   --dataset=<name> | --graph=<edge-list path>   (default webgoogle-like)
//   --scale=S --machines=N --cut=random|grid|coordinated|oblivious|hybrid
//   --partition-seed=N --split=true|false --ingest-threads=N
//   --engine=sync|async|lazy-block|lazy-vertex    (default lazy-block)
//   --cluster-threads=N --staleness=N
//   Traffic (deterministic; same seed => same stream):
//     --queries=N --rate=QPS --zipf=SKEW --tenants=N --seed=N
//     --families=sssp,bfs,widest,diffusion[,kcore]  enabled families
//     --kcore-max-k=K
//   Batching policy:
//     --max-lanes=K (1..16; 1 disables batching) --max-wait=SECONDS
//   Diffusion family: --alpha=A --tol=T
//   --verify=true        re-run every lane solo and fail on any divergence
//   --cache-budget-mb=N  byte budget for the artifact cache (0 = unbounded)
//   --trace[=FILE]       write the serving trace (per-query spans + engine
//                        spans of every batch) as JSONL to FILE
//                        (serve_trace.jsonl)
// Any other flag is rejected with exit code 1.
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

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

// "sssp,bfs,widest" -> per-family weights (1 enabled, 0 disabled).
void apply_family_list(serve::TrafficOptions& t, const std::string& list) {
  t.w_sssp = t.w_bfs = t.w_widest = t.w_diffusion = t.w_kcore = 0.0;
  std::istringstream is(list);
  std::string name;
  while (std::getline(is, name, ',')) {
    switch (serve::query_family_from_string(name)) {
      case serve::QueryFamily::kSssp: t.w_sssp = 1.0; break;
      case serve::QueryFamily::kBfs: t.w_bfs = 1.0; break;
      case serve::QueryFamily::kWidest: t.w_widest = 1.0; break;
      case serve::QueryFamily::kDiffusion: t.w_diffusion = 1.0; break;
      case serve::QueryFamily::kKcore: t.w_kcore = 1.0; break;
    }
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  opts.reject_unknown({"dataset", "graph", "scale", "machines", "cut",
                       "partition-seed", "split", "ingest-threads", "engine",
                       "cluster-threads", "staleness", "queries", "rate",
                       "zipf", "tenants", "seed", "families", "kcore-max-k",
                       "max-lanes", "max-wait", "alpha", "tol", "verify",
                       "cache-budget-mb", "trace"});
  const auto machines =
      static_cast<machine_t>(opts.get_int("machines", 8, 1, 64));
  const auto cut = parse_cut(opts.get("cut", "coordinated"));
  const auto ingest_threads =
      static_cast<std::size_t>(opts.get_int("ingest-threads", 1, 0));
  const auto kind =
      engine::engine_kind_from_string(opts.get("engine", "lazy-block"));

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
  std::cout << graph_name << ": " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges, E/V="
            << Table::num(g.edge_vertex_ratio(), 2) << "\n";

  // Traffic. Generated before the build so a traffic mistake fails fast.
  serve::TrafficOptions traffic;
  traffic.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1, 0));
  traffic.num_queries =
      static_cast<std::uint32_t>(opts.get_int("queries", 64, 0, kMaxU32));
  traffic.rate_qps = opts.get_double("rate", 100.0);
  traffic.zipf_skew = opts.get_double("zipf", 1.0);
  traffic.tenants = static_cast<std::uint32_t>(
      opts.get_int("tenants", 4, 0, kMaxU32));
  traffic.kcore_max_k = static_cast<std::uint32_t>(
      opts.get_int("kcore-max-k", 5, 0, kMaxU32));
  if (opts.has("families")) {
    apply_family_list(traffic, opts.get("families", ""));
  }
  std::vector<serve::Query> queries =
      serve::make_traffic(traffic, g.num_vertices());

  // Partition/build through the artifact cache — the server's resident
  // graph, shared with anything else using the same cache in-process.
  partition::ArtifactCache& cache = partition::ArtifactCache::global();
  const auto budget_mb =
      static_cast<std::uint64_t>(opts.get_int("cache-budget-mb", 0, 0));
  if (budget_mb > 0) cache.set_byte_budget(budget_mb * 1024 * 1024);

  const bool lazy_engine = kind == engine::EngineKind::kLazyBlock ||
                           kind == engine::EngineKind::kLazyVertex;
  partition::EdgeSplitterOptions split = {.enabled = false};
  if (opts.get_bool("split", false) && lazy_engine) {
    split = {.t_extra = 0.001};
  }
  const auto t_build = std::chrono::steady_clock::now();
  const auto dg = cache.dgraph(
      g, machines,
      {.kind = cut,
       .seed = static_cast<std::uint64_t>(
           opts.get_int("partition-seed", 7, 0)),
       .threads = ingest_threads},
      split, ingest_threads);
  const double setup_wall = seconds_since(t_build);
  std::cout << "partition: " << to_string(cut) << " over " << machines
            << " machines, lambda="
            << Table::num(dg->replication_factor(), 2) << ", setup "
            << Table::num(setup_wall, 3) << "s (ingest "
            << Table::num(seconds_since(t_ingest) - setup_wall, 3) << "s)\n";

  sim::Tracer tracer;
  const bool want_trace = opts.has("trace");

  serve::ServeOptions sopts;
  sopts.run.kind = kind;
  sopts.run.staleness =
      static_cast<std::uint32_t>(opts.get_int("staleness", 4, 0, kMaxU32));
  if (want_trace) sopts.run.tracer = &tracer;
  sopts.policy.max_lanes =
      static_cast<std::uint32_t>(opts.get_int("max-lanes", 16, 0, kMaxU32));
  sopts.policy.max_wait_seconds = opts.get_double("max-wait", 0.05);
  sopts.cluster_threads =
      static_cast<std::size_t>(opts.get_int("cluster-threads", 1, 0));
  sopts.diffusion_alpha = opts.get_double("alpha", 0.5);
  sopts.diffusion_tol = opts.get_double("tol", 1e-7);
  sopts.verify_solo = opts.get_bool("verify", false);

  serve::QueryServer server(dg, sopts);
  const serve::ServeReport rep = server.serve(std::move(queries));

  std::cout << "served " << rep.records.size() << " queries in "
            << rep.batches << " batches on " << to_string(kind)
            << " (max-lanes=" << sopts.policy.max_lanes
            << ", max-wait=" << Table::num(sopts.policy.max_wait_seconds, 3)
            << "s)"
            << (sopts.verify_solo
                    ? ", verified " + std::to_string(rep.verified_lanes) +
                          " lanes against solo runs"
                    : "")
            << "\n";
  std::cout << "virtual makespan " << Table::num(rep.makespan_seconds, 4)
            << "s, throughput " << Table::num(rep.queries_per_second(), 2)
            << " q/s (virtual), host engine time "
            << Table::num(rep.wall_seconds, 3) << "s\n";

  Table widths({"lanes", "batches"});
  for (std::size_t w = 0; w < rep.width_histogram.size(); ++w) {
    if (rep.width_histogram[w] == 0) continue;
    widths.add_row({Table::num(w), Table::num(rep.width_histogram[w])});
  }
  widths.print(std::cout);

  Table lat({"metric", "p50", "p90", "p99"});
  lat.add_row({"queue_s", Table::num(rep.queue_percentile(50), 5),
               Table::num(rep.queue_percentile(90), 5),
               Table::num(rep.queue_percentile(99), 5)});
  lat.add_row({"service_s", Table::num(rep.service_percentile(50), 5),
               Table::num(rep.service_percentile(90), 5),
               Table::num(rep.service_percentile(99), 5)});
  lat.add_row({"latency_s", Table::num(rep.latency_percentile(50), 5),
               Table::num(rep.latency_percentile(90), 5),
               Table::num(rep.latency_percentile(99), 5)});
  lat.print(std::cout);

  std::cout << "tenants:";
  for (const auto& [tenant, count] : rep.tenant_queries) {
    std::cout << " t" << tenant << "=" << count;
  }
  std::cout << "\n";
  rep.metrics.print(std::cout, "serve");

  const partition::ArtifactStats cs = cache.stats();
  std::cout << "artifact cache: " << cs.hits() << " hits, " << cs.misses()
            << " misses, " << cs.evictions() << " evictions, resident "
            << Table::num(static_cast<double>(cs.resident_bytes) /
                              (1024.0 * 1024.0),
                          2)
            << " MB"
            << (cache.byte_budget() > 0
                    ? " (budget " +
                          Table::num(static_cast<double>(cache.byte_budget()) /
                                         (1024.0 * 1024.0),
                                     0) +
                          " MB)"
                    : "")
            << "\n";

  if (want_trace) {
    const std::string path = opts.get("trace", "serve_trace.jsonl");
    std::ofstream os(path);
    require(os.good(), "cannot open trace output: " + path);
    tracer.write_jsonl(os);
    std::cout << "trace: " << tracer.spans().size() << " spans, "
              << tracer.setup_spans().size() << " serve/setup spans -> "
              << path << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
