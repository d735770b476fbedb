#include "experiment_matrix.hpp"

#include <chrono>
#include <map>
#include <mutex>
#include <tuple>
#include <unordered_set>

namespace lazygraph::bench {

namespace {
std::mutex cache_mu;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// dataset_graph with a hit report (computed = this call generated the graph).
const Graph& dataset_graph_impl(const datasets::DatasetSpec& spec,
                                double scale, bool symmetrize,
                                bool* computed) {
  static std::map<std::tuple<std::string, double, bool>, Graph> cache;
  std::lock_guard<std::mutex> lock(cache_mu);
  const auto key = std::make_tuple(spec.name, scale, symmetrize);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Graph g = datasets::make(spec, scale);
    if (symmetrize) g = g.symmetrized();
    it = cache.emplace(key, std::move(g)).first;
    if (computed) *computed = true;
  }
  return it->second;
}

// Keeps every artifact the matrix ever handed out alive: dataset_dgraph
// returns a const&, so shared_ptrs from the cache must be pinned here in
// case the cache evicts (eviction only drops future reuse, never a
// reference the harness still holds).
void pin_dgraph(std::shared_ptr<const partition::DistributedGraph> dg) {
  static std::vector<std::shared_ptr<const partition::DistributedGraph>> pins;
  static std::unordered_set<const partition::DistributedGraph*> seen;
  std::lock_guard<std::mutex> lock(cache_mu);
  if (seen.insert(dg.get()).second) pins.push_back(std::move(dg));
}

}  // namespace

const Graph& dataset_graph(const datasets::DatasetSpec& spec, double scale,
                           bool symmetrize) {
  return dataset_graph_impl(spec, scale, symmetrize, nullptr);
}

const partition::DistributedGraph& dataset_dgraph(
    const datasets::DatasetSpec& spec, double scale, bool symmetrize,
    machine_t machines, partition::CutKind cut, bool edge_split,
    std::uint64_t seed, double splitter_teps, double splitter_t_extra) {
  const Graph& g = dataset_graph(spec, scale, symmetrize);
  partition::PartitionOptions popts;
  popts.kind = cut;
  popts.seed = seed;
  popts.threads = 0;  // hardware concurrency; bit-identical at any value
  partition::EdgeSplitterOptions sopts;
  sopts.enabled = edge_split;
  sopts.teps = splitter_teps;
  sopts.t_extra = splitter_t_extra;
  auto dg = partition::ArtifactCache::global().dgraph(g, machines, popts,
                                                      sopts, /*threads=*/0);
  const partition::DistributedGraph& ref = *dg;
  pin_dgraph(std::move(dg));
  return ref;
}

vid_t pick_source(const Graph& g) {
  const auto& out = g.out_degrees();
  vid_t best = 0;
  for (vid_t v = 1; v < g.num_vertices(); ++v) {
    if (out[v] > out[best]) best = v;
  }
  return best;
}

CellResult run_cell(Algo algo, const datasets::DatasetSpec& spec,
                    engine::EngineKind kind, const ExperimentConfig& cfg) {
  const bool symmetrize = (algo == Algo::kKCore || algo == Algo::kCC);
  const bool lazy_engine = (kind == engine::EngineKind::kLazyBlock ||
                            kind == engine::EngineKind::kLazyVertex);
  // The eager baselines always run the plain vertex-cut graph; parallel-edges
  // are a LazyGraph mechanism.
  const bool split = cfg.edge_split && lazy_engine;

  bool g_computed = false;
  const auto t_ingest = std::chrono::steady_clock::now();
  const Graph& g =
      dataset_graph_impl(spec, cfg.dataset_scale, symmetrize, &g_computed);
  const double ingest_wall = seconds_since(t_ingest);

  // Workload-size calibration: each analogue edge stands for `k` edges of
  // the paper's full-size input, so compute slows down by k and wire volume
  // grows by k. Shapes then match the paper's compute:communication balance.
  sim::NetworkModelConfig net;
  if (cfg.calibrate_compute && spec.paper_edges > 0.0) {
    const double k =
        spec.paper_edges * 1e6 / static_cast<double>(g.num_edges());
    net.teps /= k;
    net.volume_scale = k;
  }

  const auto stats0 = partition::ArtifactCache::global().stats();
  const auto t_dg = std::chrono::steady_clock::now();
  const partition::DistributedGraph& dg = dataset_dgraph(
      spec, cfg.dataset_scale, symmetrize, cfg.machines, cfg.cut, split,
      cfg.seed, split ? net.teps : 0.0, cfg.splitter_t_extra);
  const double dgraph_wall = seconds_since(t_dg);
  const auto stats1 = partition::ArtifactCache::global().stats();
  const std::uint64_t cache_hits = stats1.hits() - stats0.hits();
  const std::uint64_t cache_misses = stats1.misses() - stats0.misses();
  const double partition_wall = stats1.partition_seconds -
                                stats0.partition_seconds;

  sim::Cluster cluster(sim::ClusterConfig{cfg.machines, net, cfg.threads});
  engine::RunConfig rcfg;
  rcfg.kind = kind;
  rcfg.interval.policy = cfg.interval;
  rcfg.comm_policy = cfg.comm_policy;
  if (cfg.tracer) {
    cfg.tracer->clear();
    rcfg.tracer = cfg.tracer;
    // Wall-clock setup timeline (separate from the simulated-time spans the
    // engine will record): ingest, then partition/build attributed from the
    // artifact cache's own accounting of this call.
    cfg.tracer->record_setup({.kind = sim::SpanKind::kIngest,
                              .duration_seconds = ingest_wall,
                              .items = g.num_edges(),
                              .cache_hit = !g_computed});
    cfg.tracer->record_setup(
        {.kind = sim::SpanKind::kPartition,
         .duration_seconds = partition_wall,
         .items = g.num_edges(),
         .cache_hit = stats1.assignment_misses == stats0.assignment_misses});
    cfg.tracer->record_setup(
        {.kind = sim::SpanKind::kBuild,
         .duration_seconds = dgraph_wall - partition_wall,
         .items = dg.total_local_edges(),
         .cache_hit = stats1.dgraph_misses == stats0.dgraph_misses});
  }

  bool converged = false;
  std::uint64_t supersteps = 0;
  const auto take = [&](const auto& r) {
    converged = r.converged;
    supersteps = r.supersteps;
  };
  switch (algo) {
    case Algo::kPageRank:
      take(engine::run(rcfg, dg, algos::PageRankDelta{.tol = cfg.pr_tol},
                       cluster));
      break;
    case Algo::kSSSP:
      take(engine::run(rcfg, dg, algos::SSSP{.source = pick_source(g)},
                       cluster));
      break;
    case Algo::kCC:
      take(engine::run(rcfg, dg, algos::ConnectedComponents{}, cluster));
      break;
    case Algo::kKCore: {
      std::uint32_t k = cfg.kcore_k;
      if (k == 0) {
        const double avg_degree = g.edge_vertex_ratio();  // symmetrized
        k = std::max<std::uint32_t>(
            3, static_cast<std::uint32_t>(avg_degree / 2.0));
      }
      take(engine::run(rcfg, dg, algos::KCore{.k = k}, cluster));
      break;
    }
  }
  if (cfg.tracer) {
    cfg.tracer->set_run_info(to_string(kind), to_string(algo));
  }

  // Setup accounting is written after the run so an engine-side metrics
  // reset can't clobber it; it is wall-clock and never part of sim_seconds.
  cluster.metrics().setup_seconds = ingest_wall + dgraph_wall;
  cluster.metrics().setup_cache_hits = cache_hits + (g_computed ? 0 : 1);
  cluster.metrics().setup_cache_misses = cache_misses + (g_computed ? 1 : 0);

  const sim::SimMetrics& m = cluster.metrics();
  CellResult out;
  out.sim_seconds = m.sim_seconds();
  out.global_syncs = m.global_syncs;
  out.network_bytes = m.network_bytes;
  out.network_messages = m.network_messages;
  out.supersteps = supersteps;
  out.a2a_exchanges = m.a2a_exchanges;
  out.m2m_exchanges = m.m2m_exchanges;
  out.converged = converged;
  out.replication_factor = dg.replication_factor();
  out.setup_seconds = m.setup_seconds;
  out.setup_cache_hits = m.setup_cache_hits;
  out.setup_cache_misses = m.setup_cache_misses;
  return out;
}

}  // namespace lazygraph::bench
