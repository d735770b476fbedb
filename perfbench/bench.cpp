// perfbench: the end-to-end benchmark of the LazyGraph reproduction, on both
// of its clocks — host wall seconds of this program and simulated cluster
// seconds (the paper's clock).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One workload per invocation. Its inputs are synthesized from --seed with
// the library's generators and serialized to edge-list text; that synthesis,
// the reference answers and the solo/sequential baselines are computed once
// and never timed. Every timed repeat then runs the path a user pays for —
// edge-list text -> parse -> partition -> build -> engine / executor /
// server — with fresh caches, and its answer is checked outside the timed
// region. README.md lists the workloads and the metric -> layer map.
//
// Output: human-readable lines, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics with
// --trace 0, per-layer metrics (from traced repeats) with --trace 1.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "lazygraph.hpp"

using namespace lazygraph;
using Clock = std::chrono::steady_clock;

namespace {

constexpr machine_t kMachines = 16;
/// Vertex numberings (layouts) of the workload's graph per invocation; the
/// timed repeats cycle through them.
constexpr std::size_t kLayouts = 3;
/// Fewest timed repeats per layout, whatever --seconds says.
constexpr std::size_t kMinRounds = 2;
constexpr double kMB = 1024.0 * 1024.0;

// CMake sets PERFBENCH_SANITIZE when the flags carry -fsanitize.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = PERFBENCH_SANITIZE != 0;
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ---------------------------------------------------------------------------
// Metric catalogue. Every name is always reported (0 where the workload does
// not exercise the layer), in this order. Units: "s" is host wall time,
// "sim-s" simulated cluster seconds.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"run_s", "s"},
    {"solve_s", "s"},           {"sim_s", "sim-s"},
    {"peak_rss_mb", "MB"},      {"sim_qps", "1/sim-s"},
    {"lat_p50_sim_s", "sim-s"}, {"lat_p95_sim_s", "sim-s"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.parse_s", "s"},
    {"graph.edges", "count"},
    {"partition.assign_s", "s"},
    {"partition.split_s", "s"},
    {"partition.build_s", "s"},
    {"partition.lambda", "ratio"},
    {"partition.parallel_edge_copies", "count"},
    {"engine.supersteps", "count"},
    {"engine.global_syncs", "count"},
    {"engine.local_subiters", "count"},
    {"engine.a2a_exchanges", "count"},
    {"engine.m2m_exchanges", "count"},
    {"engine.applies", "count"},
    {"engine.edge_traversals", "count"},
    {"engine.sweep_scanned", "count"},
    {"engine.scan_hit_ratio", "ratio"},
    {"engine.applies_per_vertex", "ratio"},
    {"engine.sweep_edges_pushed", "count"},
    {"engine.sweep_edges_pulled", "count"},
    {"engine.pull_rounds", "count"},
    {"engine.exchange_wire_mb", "MB"},
    {"engine.exchange_raw_mb", "MB"},
    {"engine.compression_ratio", "ratio"},
    {"engine.messages", "count"},
    {"engine.state_mb", "MB"},
    {"sim.coherency_exchange_s", "sim-s"},
    {"sim.local_stage_s", "sim-s"},
    {"sim.apply_sweep_s", "sim-s"},
    {"sim.barrier_s", "sim-s"},
    {"sim.eager_gather_s", "sim-s"},
    {"sim.eager_broadcast_s", "sim-s"},
    {"sim.eager_scatter_s", "sim-s"},
    {"sim.other_s", "sim-s"},
    {"sim.total_s", "sim-s"},
    {"sim.lazy_on_share", "ratio"},
    {"sim.trace_overhead_s", "s"},
    {"serve.batches", "count"},
    {"serve.lane_fill", "ratio"},
    {"serve.queue_p95_sim_s", "sim-s"},
    {"serve.service_p50_sim_s", "sim-s"},
    {"serve.engine_wall_s", "s"},
    {"serve.admission_wall_s", "s"},
    {"plan.engine_runs", "count"},
    {"plan.partitions", "count"},
    {"plan.builds", "count"},
    {"plan.fused_stages", "count"},
    {"plan.partition_s", "s"},
    {"plan.build_s", "s"},
};

using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// One timed repeat.

struct Repeat {
  double setup_s = 0.0;  // edge-list text -> ready graph (see each workload)
  double run_s = 0.0;    // the computation call
  // Virtual-clock outcome.
  double sim_s = 0.0;
  double sim_qps = 0.0;
  double lat_p50 = 0.0;
  double lat_p95 = 0.0;
  /// Engine counters of the repeat (summed over runs/batches).
  sim::SimMetrics metrics = {};
  std::size_t vertices = 0;
  /// Layer values the workload measured itself (graph.*, partition.*,
  /// serve.*, plan.*); the engine.* and sim.* values are derived centrally.
  Values layer;
  /// Counters that must repeat bit for bit at any thread count.
  std::vector<std::pair<std::string, double>> exact;
  std::uint64_t attempted = 1;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// The exact counters every workload shares: sim time and the engine
/// protocol, sweep and traffic counters.
void add_engine_exact(Repeat& r) {
  const sim::SimMetrics& m = r.metrics;
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  r.exact.insert(r.exact.end(),
                 {{"sim_s", r.sim_s},
                  {"engine.supersteps", d(m.supersteps)},
                  {"engine.global_syncs", d(m.global_syncs)},
                  {"engine.local_subiters", d(m.local_subiterations)},
                  {"engine.a2a_exchanges", d(m.a2a_exchanges)},
                  {"engine.m2m_exchanges", d(m.m2m_exchanges)},
                  {"engine.applies", d(m.applies)},
                  {"engine.edge_traversals", d(m.edge_traversals)},
                  {"engine.sweep_scanned", d(m.sweep_scanned)},
                  {"engine.messages", d(m.network_messages)},
                  {"engine.network_bytes", d(m.network_bytes)}});
}

/// A workload: kLayouts inputs built from the seed, and one repeat over any
/// of them.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One end-to-end repeat over layout `layout` with every pool at
  /// `threads`; `tracer` (may be null) records the run's spans.
  virtual Repeat run(std::size_t layout, std::size_t threads,
                     sim::Tracer* tracer) = 0;
};

// ---------------------------------------------------------------------------
// Input synthesis (untimed).

/// Edge-list text ("src dst weight" lines) in the format io::read_edge_list
/// parses. Weights carry 9 significant digits, which round-trip a float
/// exactly, so the parsed graph has the generated weights bit for bit.
std::string to_text(const Graph& g) {
  std::string out;
  out.reserve(g.num_edges() * 24);
  char buf[32];
  const auto put = [&](auto... value) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value...).ptr);
  };
  for (const Edge& e : g.edges()) {
    put(e.src);
    out += ' ';
    put(e.dst);
    out += ' ';
    put(e.weight, std::chars_format::general, 9);
    out += '\n';
  }
  return out;
}

/// One layout of a workload's graph: a seed-drawn renumbering of its
/// vertices. The numbering changes the input text, the partition, the
/// masters and every message order, but not the graph's shape, so layouts
/// vary how the work is laid out, not how much of it there is.
struct Layout {
  std::uint64_t seed = 0;  // drew the numbering; seeds the layout's traffic
  std::string text;        // what the timed path parses
  std::vector<vid_t> id;  // id[vertex of the base graph] = vertex in `text`
  vid_t n = 0;            // vertices the parser will see (max id + 1)
};

Layout make_layout(const Graph& base, std::uint64_t seed) {
  const vid_t n = base.num_vertices();
  Layout l;
  l.seed = seed;
  l.id.resize(n);
  for (vid_t v = 0; v < n; ++v) l.id[v] = v;
  Rng rng(seed);
  for (vid_t i = n; i > 1; --i) std::swap(l.id[i - 1], l.id[rng.below(i)]);
  std::vector<Edge> edges = base.edges();
  for (Edge& e : edges) {
    e.src = l.id[e.src];
    e.dst = l.id[e.dst];
    l.n = std::max({l.n, e.src + 1, e.dst + 1});
  }
  l.text = to_text(Graph(n, std::move(edges)));
  return l;
}

/// kLayouts layouts of `base`, seeded from `seed`.
std::vector<Layout> make_layouts(const Graph& base, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Layout> out;
  for (std::size_t i = 0; i < kLayouts; ++i) {
    out.push_back(make_layout(base, rng()));
  }
  return out;
}

/// `ref` (indexed by base vertex) in a layout's numbering.
template <class T>
std::vector<T> permute(const std::vector<T>& ref, const Layout& l) {
  std::vector<T> out(l.n);
  for (std::size_t v = 0; v < ref.size(); ++v) {
    if (l.id[v] < l.n) out[l.id[v]] = ref[v];
  }
  return out;
}

/// Runs `setup` until it has taken kSetupSamples samples or kSetupBudget
/// seconds, keeps the last result and sets r.setup_s to the median sample.
/// Short setups are noisy on a shared host; several samples steady them.
constexpr int kSetupSamples = 5;
constexpr double kSetupBudget = 0.25;

template <class F>
auto sampled_setup(Repeat& r, F setup) {
  std::vector<double> samples;
  double total = 0.0;
  decltype(setup()) out;
  do {
    out = {};  // release the previous sample before timing the next
    const Clock::time_point t0 = Clock::now();
    out = setup();
    samples.push_back(seconds_since(t0));
    total += samples.back();
  } while (static_cast<int>(samples.size()) < kSetupSamples &&
           total < kSetupBudget);
  r.setup_s = median(std::move(samples));
  return out;
}

/// Parse -> partition -> [split] -> build, each stage timed into `r`.
std::shared_ptr<const partition::DistributedGraph> setup_graph(
    const std::string& text, bool split, std::size_t threads, Repeat& r) {
  const Clock::time_point t0 = Clock::now();
  const Graph g = io::read_edge_list_text(text, {.threads = threads});
  const double parse_s = seconds_since(t0);
  Clock::time_point t = Clock::now();
  const partition::Assignment assignment = partition::assign_edges(
      g, kMachines,
      {.kind = partition::CutKind::kCoordinated, .threads = threads});
  const double assign_s = seconds_since(t);
  t = Clock::now();
  std::vector<std::uint64_t> split_edges;
  if (split) split_edges = partition::select_split_edges(g, kMachines, {});
  const double split_s = seconds_since(t);
  t = Clock::now();
  auto dg = std::make_shared<const partition::DistributedGraph>(
      partition::DistributedGraph::build(g, kMachines, assignment, split_edges,
                                         threads));
  const double build_s = seconds_since(t);
  r.vertices = g.num_vertices();
  r.layer["graph.parse_s"] = parse_s;
  r.layer["graph.edges"] = static_cast<double>(g.num_edges());
  r.layer["partition.assign_s"] = assign_s;
  r.layer["partition.split_s"] = split_s;
  r.layer["partition.build_s"] = build_s;
  r.layer["partition.lambda"] = dg->replication_factor();
  r.layer["partition.parallel_edge_copies"] =
      static_cast<double>(dg->parallel_edge_copies());
  return dg;
}

// ---------------------------------------------------------------------------
// web-pagerank / road-sssp: one lazy-block engine run over a freshly built,
// edge-split DistributedGraph.

template <class P>
class EngineWorkload : public Workload {
 public:
  using MakeProg = std::function<P(const Layout&)>;
  /// Error text for a wrong answer on layout `layout`, else nullopt.
  using Check = std::function<std::optional<std::string>(
      const std::vector<typename P::VData>&, std::size_t layout)>;

  EngineWorkload(std::vector<Layout> layouts, MakeProg make, Check check)
      : layouts_(std::move(layouts)),
        make_(std::move(make)),
        check_(std::move(check)) {}

  Repeat run(std::size_t layout, std::size_t threads,
             sim::Tracer* tracer) override {
    Repeat r;
    const Layout& l = layouts_[layout];
    const auto dg = sampled_setup(
        r, [&] { return setup_graph(l.text, /*split=*/true, threads, r); });
    const P prog = make_(l);
    const Clock::time_point t0 = Clock::now();
    sim::Cluster cluster({.machines = kMachines, .threads = threads});
    const engine::RunConfig cfg{.kind = engine::EngineKind::kLazyBlock,
                                .tracer = tracer};
    const engine::RunResult<P> res = engine::run(cfg, *dg, prog, cluster);
    r.run_s = seconds_since(t0);

    r.metrics = res.metrics;
    r.sim_s = res.metrics.sim_seconds();
    // A batch analysis is one query, answered at sim_s.
    r.sim_qps = 1.0 / r.sim_s;
    r.lat_p50 = r.lat_p95 = r.sim_s;
    add_engine_exact(r);
    if (!res.converged) r.fail("engine did not converge");
    if (auto err = check_(res.data, layout)) r.fail(*err);
    return r;
  }

 private:
  std::vector<Layout> layouts_;
  MakeProg make_;
  Check check_;
};

std::unique_ptr<Workload> make_web_pagerank(std::uint64_t seed) {
  const Graph base = datasets::make(datasets::spec_by_name("uk2005-like"));
  auto layouts = make_layouts(base, seed);
  const algos::PageRankDelta prog{.tol = 1e-3};
  std::vector<std::vector<double>> refs;
  const std::vector<double> ref = reference::pagerank(base, 1e-12, 20'000);
  for (const Layout& l : layouts) refs.push_back(permute(ref, l));
  // The bound the differential oracle grants PageRank-delta: each vertex
  // may retain up to tol of unscattered delta, amplified through the
  // 0.85-contraction.
  const double bound = 300.0 * prog.tol;
  auto check = [refs = std::move(refs), bound](
                   const std::vector<algos::PageRankDelta::VData>& d,
                   std::size_t layout) -> std::optional<std::string> {
    const std::vector<double>& want = refs[layout];
    if (d.size() != want.size()) return "pagerank: wrong vertex count";
    double worst = 0.0;
    for (std::size_t v = 0; v < d.size(); ++v) {
      worst = std::max(worst, std::abs(d[v].rank - want[v]));
    }
    if (!(worst <= bound)) {
      return "pagerank: max |rank - reference| = " + std::to_string(worst);
    }
    return std::nullopt;
  };
  return std::make_unique<EngineWorkload<algos::PageRankDelta>>(
      std::move(layouts), [prog](const Layout&) { return prog; },
      std::move(check));
}

std::unique_ptr<Workload> make_road_sssp(std::uint64_t seed) {
  // Road analogue enlarged past Table 1 (roadusa-like is 220 x 220). The
  // source is the serpentine backbone's first corner (base vertex 0).
  const Graph base =
      gen::road_lattice(300, 300, 0.30, 2018, gen::WeightSpec{1.0f, 64.0f});
  auto layouts = make_layouts(base, seed);
  std::vector<std::vector<double>> refs;
  const std::vector<double> ref = reference::sssp(base, 0);
  for (const Layout& l : layouts) refs.push_back(permute(ref, l));
  auto check = [refs = std::move(refs)](
                   const std::vector<algos::SSSP::VData>& d,
                   std::size_t layout) -> std::optional<std::string> {
    const std::vector<double>& want = refs[layout];
    if (d.size() != want.size()) return "sssp: wrong vertex count";
    for (std::size_t v = 0; v < d.size(); ++v) {
      if (d[v].dist != want[v]) {
        return "sssp: dist[" + std::to_string(v) + "] differs from Dijkstra";
      }
    }
    return std::nullopt;
  };
  return std::make_unique<EngineWorkload<algos::SSSP>>(
      std::move(layouts),
      [](const Layout& l) { return algos::SSSP{.source = l.id[0]}; },
      std::move(check));
}

// ---------------------------------------------------------------------------
// serve-mixed: QueryServer over a resident graph, one open-loop Zipf stream
// of all five families per layout.

class ServeMixed : public Workload {
 public:
  explicit ServeMixed(std::uint64_t seed) {
    std::vector<Layout> layouts = make_layouts(
        datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05), seed);
    for (Layout& l : layouts) {
      Input in;
      in.queries = schedule(l.seed, l.n);
      Repeat scratch;
      in.solo = solo_digests(*setup_graph(l.text, false, 0, scratch),
                             in.queries);
      in.text = std::move(l.text);
      inputs_.push_back(std::move(in));
    }
  }

  Repeat run(std::size_t layout, std::size_t threads,
             sim::Tracer* tracer) override {
    Repeat r;
    const Input& in = inputs_[layout];
    const auto dg = sampled_setup(
        r, [&] { return setup_graph(in.text, /*split=*/false, threads, r); });
    const Clock::time_point t0 = Clock::now();
    serve::QueryServer server(dg, options(threads, tracer));
    const serve::ServeReport rep = server.serve(in.queries);
    r.run_s = seconds_since(t0);

    r.metrics = rep.metrics;
    r.sim_s = rep.metrics.sim_seconds();
    r.sim_qps = rep.queries_per_second();
    r.lat_p50 = rep.latency_percentile(50);
    r.lat_p95 = rep.latency_percentile(95);
    r.layer["serve.batches"] = static_cast<double>(rep.batches);
    r.layer["serve.lane_fill"] =
        rep.batches ? static_cast<double>(rep.records.size()) /
                          static_cast<double>(rep.batches) /
                          static_cast<double>(serve::kMaxBatchLanes)
                    : 0.0;
    r.layer["serve.queue_p95_sim_s"] = rep.queue_percentile(95);
    r.layer["serve.service_p50_sim_s"] = rep.service_percentile(50);
    r.layer["serve.engine_wall_s"] = rep.wall_seconds;
    r.layer["serve.admission_wall_s"] = r.run_s - rep.wall_seconds;
    add_engine_exact(r);
    r.exact.insert(r.exact.end(),
                   {{"serve.batches", static_cast<double>(rep.batches)},
                    {"serve.makespan", rep.makespan_seconds},
                    {"lat_p95_sim_s", r.lat_p95}});

    // Every query is one operation; its digest must equal its solo run's.
    r.attempted = in.queries.size();
    if (rep.records.size() != in.queries.size()) {
      r.fail("serve: " + std::to_string(rep.records.size()) + " of " +
             std::to_string(in.queries.size()) + " queries answered");
    }
    for (const serve::QueryRecord& rec : rep.records) {
      const auto it = in.solo.find(key(rec.query));
      if (it == in.solo.end() || it->second != rec.digest) {
        r.fail("serve: query " + std::to_string(rec.query.id) + " (" +
               serve::to_string(rec.query.family) +
               ") digest differs from its solo run");
      }
    }
    return r;
  }

 private:
  struct Input {
    std::string text;
    std::vector<serve::Query> queries;
    std::map<std::uint64_t, std::uint64_t> solo;  // key(query) -> digest
  };

  /// The query stream: 200 queries (10 beyond p95) on a fixed schedule of
  /// 4 q/s, the five families in turn. Each family's sources (Zipf) or
  /// k-core thresholds come from the traffic generator. The fixed schedule
  /// makes each family's batches fill to the same width on every seed; with
  /// a 4 sim-s batching wait the server is about 60% busy (sim_s /
  /// makespan), so latency measures batching, not backlog.
  static std::vector<serve::Query> schedule(std::uint64_t seed, vid_t n) {
    constexpr std::size_t kQueries = 200;
    constexpr double kRate = 4.0;
    const std::span<const serve::QueryFamily> families =
        serve::kAllQueryFamilies;
    std::vector<std::vector<serve::Query>> per_family;
    for (std::size_t f = 0; f < families.size(); ++f) {
      serve::TrafficOptions t;
      t.seed = seed + f;
      t.num_queries = kQueries / families.size();
      t.w_sssp = t.w_bfs = t.w_widest = t.w_diffusion = t.w_kcore = 0.0;
      switch (families[f]) {
        case serve::QueryFamily::kSssp: t.w_sssp = 1.0; break;
        case serve::QueryFamily::kBfs: t.w_bfs = 1.0; break;
        case serve::QueryFamily::kWidest: t.w_widest = 1.0; break;
        case serve::QueryFamily::kDiffusion: t.w_diffusion = 1.0; break;
        case serve::QueryFamily::kKcore: t.w_kcore = 1.0; break;
      }
      per_family.push_back(serve::make_traffic(t, n));
    }
    std::vector<serve::Query> out;
    for (std::size_t i = 0; i < kQueries; ++i) {
      serve::Query q = per_family[i % families.size()][i / families.size()];
      q.id = i;
      q.arrival_seconds = static_cast<double>(i) / kRate;
      out.push_back(q);
    }
    return out;
  }

  static serve::ServeOptions options(std::size_t threads,
                                     sim::Tracer* tracer) {
    serve::ServeOptions o;
    o.run.kind = engine::EngineKind::kLazyBlock;
    o.run.tracer = tracer;
    o.cluster_threads = threads;
    o.policy.max_wait_seconds = 4.0;
    return o;
  }

  static std::uint64_t key(const serve::Query& q) {
    const std::uint64_t arg =
        q.family == serve::QueryFamily::kKcore ? q.k : q.source;
    return (static_cast<std::uint64_t>(q.family) << 40) | arg;
  }

  /// The solo-run digest of every distinct query in `queries`, with the
  /// programs the server builds for each family (serve/server.cpp).
  static std::map<std::uint64_t, std::uint64_t> solo_digests(
      const partition::DistributedGraph& dg,
      const std::vector<serve::Query>& queries) {
    const serve::ServeOptions o = options(0, nullptr);
    std::map<std::uint64_t, std::uint64_t> out;
    const auto solo = [&](const serve::Query& q, const auto& prog) {
      sim::Cluster cluster({.machines = kMachines, .threads = 0});
      const auto res = serve::run_solo(dg, prog, o.run, cluster);
      out[key(q)] = serve::lane_digest(res.lanes[0].data);
    };
    for (const serve::Query& q : queries) {
      if (out.contains(key(q))) continue;
      switch (q.family) {
        case serve::QueryFamily::kSssp:
          solo(q, algos::SSSP{q.source});
          break;
        case serve::QueryFamily::kBfs:
          solo(q, algos::BFS{q.source});
          break;
        case serve::QueryFamily::kWidest:
          solo(q, algos::WidestPath{q.source});
          break;
        case serve::QueryFamily::kKcore:
          solo(q, algos::KCore{q.k});
          break;
        case serve::QueryFamily::kDiffusion:
          solo(q, algos::LinearDiffusion{.alpha = o.diffusion_alpha,
                                         .base_bias = 0.0,
                                         .seed = q.source,
                                         .seed_bias = 1.0,
                                         .tol = o.diffusion_tol});
          break;
      }
    }
    return out;
  }

  std::vector<Input> inputs_;
};

// ---------------------------------------------------------------------------
// pipeline-social: cc|kcore(8)|pagerank(0.001) lowered by plan::Executor.

class PipelineSocial : public Workload {
 public:
  explicit PipelineSocial(std::uint64_t seed)
      : pipe_(plan::Pipeline::parse("cc|kcore(8)|pagerank(0.001)")) {
    std::vector<Layout> layouts = make_layouts(
        datasets::make(datasets::spec_by_name("livejournal-like"), 0.25), seed);
    for (Layout& l : layouts) {
      // The reuse-free reference lowering of this layout.
      plan::Executor ex(io::read_edge_list_text(l.text, {.threads = 0}),
                        kMachines, {.threads = 0}, nullptr, 0);
      const plan::PipelineResult res =
          ex.run(pipe_, plan::sequential_baseline(lower_options(nullptr)));
      Input in{std::move(l.text), {}};
      for (const plan::StageOutcome& o : res.outcomes) {
        in.baseline.push_back(o.digest);
      }
      inputs_.push_back(std::move(in));
    }
  }

  Repeat run(std::size_t layout, std::size_t threads,
             sim::Tracer* tracer) override {
    Repeat r;
    const Input& in = inputs_[layout];
    // setup_s is the parse only: the executor partitions and builds inside
    // the lowering (reported as plan.partition_s / plan.build_s).
    Graph g = sampled_setup(r, [&] {
      return io::read_edge_list_text(in.text, {.threads = threads});
    });
    r.vertices = g.num_vertices();
    r.layer["graph.parse_s"] = r.setup_s;
    r.layer["graph.edges"] = static_cast<double>(g.num_edges());

    const Clock::time_point t0 = Clock::now();
    partition::ArtifactCache cache;
    plan::Executor ex(std::move(g), kMachines, {.threads = threads}, &cache,
                      threads);
    const plan::PipelineResult res = ex.run(pipe_, lower_options(tracer));
    r.run_s = seconds_since(t0);

    r.metrics = res.metrics;
    r.sim_s = res.metrics.sim_seconds();
    r.sim_qps = 1.0 / r.sim_s;
    r.lat_p50 = r.lat_p95 = r.sim_s;
    double fused = 0.0;
    for (const plan::StageReport& s : res.stages) fused += s.fused ? 1.0 : 0.0;
    r.layer["plan.engine_runs"] = static_cast<double>(res.engine_runs);
    r.layer["plan.partitions"] = static_cast<double>(res.partitions_computed);
    r.layer["plan.builds"] = static_cast<double>(res.builds_computed);
    r.layer["plan.fused_stages"] = fused;
    if (tracer) {
      for (const sim::SetupSpan& s : tracer->setup_spans()) {
        if (s.kind == sim::SpanKind::kPartition) {
          r.layer["plan.partition_s"] += s.duration_seconds;
        } else if (s.kind == sim::SpanKind::kBuild) {
          r.layer["plan.build_s"] += s.duration_seconds;
        }
      }
    }
    add_engine_exact(r);
    r.exact.insert(r.exact.end(),
                   {{"plan.engine_runs", r.layer["plan.engine_runs"]},
                    {"plan.partitions", r.layer["plan.partitions"]},
                    {"plan.builds", r.layer["plan.builds"]},
                    {"plan.fused_stages", fused}});

    if (!res.converged) r.fail("pipeline: a stage did not converge");
    if (res.outcomes.size() != in.baseline.size()) {
      r.fail("pipeline: wrong stage count");
      return r;
    }
    for (std::size_t i = 0; i < in.baseline.size(); ++i) {
      if (res.outcomes[i].digest != in.baseline[i]) {
        r.fail("pipeline: stage " + std::to_string(i) + " (" +
               res.stages[i].stage + ") differs from the sequential lowering");
      }
    }
    return r;
  }

 private:
  struct Input {
    std::string text;
    std::vector<std::vector<std::uint64_t>> baseline;  // stage digests
  };

  static plan::LowerOptions lower_options(sim::Tracer* tracer) {
    plan::LowerOptions o;
    o.default_engine = engine::EngineKind::kSync;
    o.tracer = tracer;
    return o;
  }

  plan::Pipeline pipe_;
  std::vector<Input> inputs_;
};

// ---------------------------------------------------------------------------
// Per-layer values of one traced repeat.

Values layer_values(const Repeat& r, const sim::Tracer& t) {
  Values v = r.layer;
  const sim::SimMetrics& m = r.metrics;
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  v["engine.supersteps"] = d(m.supersteps);
  v["engine.global_syncs"] = d(m.global_syncs);
  v["engine.local_subiters"] = d(m.local_subiterations);
  v["engine.a2a_exchanges"] = d(m.a2a_exchanges);
  v["engine.m2m_exchanges"] = d(m.m2m_exchanges);
  v["engine.applies"] = d(m.applies);
  v["engine.edge_traversals"] = d(m.edge_traversals);
  v["engine.sweep_scanned"] = d(m.sweep_scanned);
  v["engine.scan_hit_ratio"] =
      m.sweep_scanned ? d(m.applies) / d(m.sweep_scanned) : 0.0;
  v["engine.applies_per_vertex"] =
      r.vertices ? d(m.applies) / d(r.vertices) : 0.0;
  v["engine.sweep_edges_pushed"] = d(m.sweep_edges_pushed);
  v["engine.sweep_edges_pulled"] = d(m.sweep_edges_pulled);
  v["engine.pull_rounds"] = d(m.sweep_pull_rounds);
  v["engine.messages"] = d(m.network_messages);
  v["engine.state_mb"] = d(m.state_bytes) / kMB;

  // Exchange bytes and sim phases come from the spans, so batched serving
  // (whose ServeReport sums neither) reads the same way as the rest.
  double wire = 0.0, raw = 0.0, total = 0.0;
  for (const sim::TraceSpan& s : t.spans()) {
    const char* name = "sim.other_s";
    switch (s.kind) {
      case sim::SpanKind::kCoherencyExchange:
        name = "sim.coherency_exchange_s";
        break;
      case sim::SpanKind::kLocalStage: name = "sim.local_stage_s"; break;
      case sim::SpanKind::kApplySweep: name = "sim.apply_sweep_s"; break;
      case sim::SpanKind::kBarrier: name = "sim.barrier_s"; break;
      case sim::SpanKind::kEagerGather: name = "sim.eager_gather_s"; break;
      case sim::SpanKind::kEagerBroadcast:
        name = "sim.eager_broadcast_s";
        break;
      case sim::SpanKind::kEagerScatter: name = "sim.eager_scatter_s"; break;
      default: break;
    }
    v[name] += s.duration_seconds;
    total += s.duration_seconds;
    if (s.raw_bytes > 0) {
      wire += d(s.bytes);
      raw += d(s.raw_bytes);
    }
  }
  v["sim.total_s"] = total;
  v["engine.exchange_wire_mb"] = wire / kMB;
  v["engine.exchange_raw_mb"] = raw / kMB;
  v["engine.compression_ratio"] = wire > 0.0 ? raw / wire : 0.0;
  std::size_t lazy_on = 0;
  for (const sim::SuperstepSnapshot& s : t.snapshots()) lazy_on += s.lazy_on;
  v["sim.lazy_on_share"] =
      t.snapshots().empty() ? 0.0 : d(lazy_on) / d(t.snapshots().size());
  return v;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string val = argv[++i];
    std::size_t used = val.size();
    if (flag == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(val, &used);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val, &used);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds <= 0");
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      a.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != val.size()) {
      throw std::invalid_argument("bad value for " + flag + ": " + val);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "web-pagerank") return make_web_pagerank(seed);
  if (name == "road-sssp") return make_road_sssp(seed);
  if (name == "serve-mixed") return std::make_unique<ServeMixed>(seed);
  if (name == "pipeline-social") return std::make_unique<PipelineSocial>(seed);
  throw std::invalid_argument("unknown workload " + name +
                              " (web-pagerank | road-sssp | serve-mixed | "
                              "pipeline-social)");
}

std::string compiler() {
#if defined(__clang__)
  return "clang-" __clang_version__;
#elif defined(__GNUC__)
  return "gcc-" __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string number(double x, int digits = 17) {
  std::ostringstream os;
  os << std::setprecision(digits) << (std::isfinite(x) ? x : 0.0);
  return os.str();
}

/// Median of field(r) over repeats.
template <class F>
double median_of(const std::vector<Repeat>& rs, F field) {
  std::vector<double> v;
  for (const Repeat& r : rs) v.push_back(field(r));
  return median(std::move(v));
}

std::string quartiles(const std::vector<Repeat>& rs, double Repeat::*field) {
  std::vector<double> v;
  for (const Repeat& r : rs) v.push_back(r.*field);
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return number(v[static_cast<std::size_t>(q * (v.size() - 1) + 0.5)], 4);
  };
  return at(0.0) + " / " + at(0.25) + " / " + at(0.5) + " / " + at(0.75) +
         " / " + at(1.0);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(hw, 4);
  std::cout << "host: nproc=" << hw << " threads=" << threads
            << " build=" << PERFBENCH_BUILD_TYPE << " compiler=" << compiler()
            << " sanitizer=" << (kSanitized ? "on" : "off") << "\n";
  if (kSanitized) {
    std::cerr << "perfbench: refusing to report wall-clock metrics from a "
                 "sanitizer build\n";
    return 3;
  }

  try {
    const Clock::time_point synth0 = Clock::now();
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
    std::cout << "workload: " << args.workload << " seed=" << args.seed
              << " layouts=" << kLayouts
              << " input_synthesis_s=" << number(seconds_since(synth0), 4)
              << " (untimed)\n";

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    const auto account = [&](const Repeat& r) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& e : r.errors) {
        if (errors.size() < 10) errors.push_back(e);
      }
    };

    // Determinism: every repeat of a layout must reproduce its exact
    // counters bit for bit. Layout 0's reference comes from a warm-up repeat
    // at cluster threads = 1 (not reported); the others' from their first
    // timed repeat.
    std::vector<std::optional<Repeat>> ref(kLayouts);
    const auto check_exact = [&](Repeat& r, std::size_t layout) {
      if (!ref[layout]) {
        ref[layout] = r;
        return;
      }
      const auto& want = ref[layout]->exact;
      if (r.exact.size() != want.size()) {
        r.fail("exact counters: shape drift");
        return;
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::memcmp(&r.exact[i].second, &want[i].second,
                        sizeof(double)) != 0) {
          r.fail("determinism: layout " + std::to_string(layout) + " " +
                 want[i].first + " read " + number(want[i].second) +
                 ", now " + number(r.exact[i].second));
        }
      }
    };
    {
      Repeat warm = w->run(0, 1, nullptr);
      check_exact(warm, 0);
      account(warm);
    }

    std::vector<Repeat> plain, traced;
    std::vector<Values> traced_layers;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0;; ++i) {
      const std::size_t layout = i % kLayouts;
      if (layout == 0 && i / kLayouts >= kMinRounds &&
          seconds_since(t0) >= args.seconds) {
        break;
      }
      Repeat r = w->run(layout, threads, nullptr);
      check_exact(r, layout);
      account(r);
      plain.push_back(std::move(r));
      if (args.trace) {
        sim::Tracer tracer;
        Repeat t = w->run(layout, threads, &tracer);
        check_exact(t, layout);
        Values v = layer_values(t, tracer);
        if (std::abs(v["sim.total_s"] - t.sim_s) >
            1e-9 * std::max(1.0, t.sim_s)) {
          t.fail("trace: sim.* spans sum to " + number(v["sim.total_s"]) +
                 ", sim_s is " + number(t.sim_s));
        }
        account(t);
        traced.push_back(std::move(t));
        traced_layers.push_back(std::move(v));
      }
    }

    Values out;
    std::span<const MetricDef> defs = kEndToEnd;
    if (!args.trace) {
      out["setup_s"] = median_of(plain, [](auto& r) { return r.setup_s; });
      out["run_s"] = median_of(plain, [](auto& r) { return r.run_s; });
      out["solve_s"] =
          median_of(plain, [](auto& r) { return r.setup_s + r.run_s; });
      out["sim_s"] = median_of(plain, [](auto& r) { return r.sim_s; });
      out["peak_rss_mb"] = peak_rss_mb();
      out["sim_qps"] = median_of(plain, [](auto& r) { return r.sim_qps; });
      out["lat_p50_sim_s"] =
          median_of(plain, [](auto& r) { return r.lat_p50; });
      out["lat_p95_sim_s"] =
          median_of(plain, [](auto& r) { return r.lat_p95; });
    } else {
      // Counts and sim-clock values come from one traced repeat, on the
      // layout with the median sim_s, so the sim.* phases still sum to its
      // sim.total_s; wall times are medians over all traced repeats.
      defs = kPerLayer;
      std::vector<std::size_t> order(traced.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return traced[a].sim_s < traced[b].sim_s;
      });
      const Values& mid = traced_layers[order[order.size() / 2]];
      const auto value = [](const Values& l, const char* name) {
        const auto it = l.find(name);
        return it == l.end() ? 0.0 : it->second;
      };
      for (const MetricDef& d : defs) {
        if (std::string_view(d.unit) != "s") {
          out[d.name] = value(mid, d.name);
          continue;
        }
        std::vector<double> v;
        for (const Values& l : traced_layers) v.push_back(value(l, d.name));
        out[d.name] = median(std::move(v));
      }
      out["sim.trace_overhead_s"] =
          median_of(traced, [](auto& r) { return r.run_s; }) -
          median_of(plain, [](auto& r) { return r.run_s; });
    }

    std::cout << "repeats: " << plain.size() << " untraced, " << traced.size()
              << " traced, over " << kLayouts
              << " layouts (+1 warm-up at threads=1); metrics are medians\n"
              << "  setup_s min/q1/median/q3/max: "
              << quartiles(plain, &Repeat::setup_s) << "\n"
              << "  run_s   min/q1/median/q3/max: "
              << quartiles(plain, &Repeat::run_s) << "\n";
    for (const std::string& e : errors) std::cout << "FAILED: " << e << "\n";
    for (const MetricDef& d : defs) {
      std::cout << "  " << std::left << std::setw(34) << d.name
                << number(out[d.name], 6) << " " << d.unit << "\n";
    }
    std::ostringstream js;
    js << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      js << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": "
         << number(out[defs[i].name]) << ", \"unit\": \"" << defs[i].unit
         << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
