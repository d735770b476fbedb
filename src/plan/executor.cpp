#include "plan/executor.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/diffusion.hpp"
#include "algos/kcore.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "algos/widest_path.hpp"
#include "plan/programs.hpp"
#include "sim/cluster.hpp"

namespace lazygraph::plan {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix_string(std::uint64_t h, const std::string& s) {
  h = mix(h, s.size());
  for (const char c : s) h = mix(h, static_cast<unsigned char>(c));
  return h;
}

template <class P>
P make_program(const StageSpec& s) {
  if constexpr (std::is_same_v<P, algos::SSSP>) {
    return {.source = s.source};
  } else if constexpr (std::is_same_v<P, algos::BFS>) {
    return {.source = s.source};
  } else if constexpr (std::is_same_v<P, algos::ConnectedComponents>) {
    return {};
  } else if constexpr (std::is_same_v<P, algos::KCore>) {
    return {.k = s.k};
  } else if constexpr (std::is_same_v<P, algos::PageRankDelta>) {
    return {.tol = s.tol};
  } else if constexpr (std::is_same_v<P, algos::WidestPath>) {
    return {.source = s.source};
  } else {
    static_assert(std::is_same_v<P, algos::LinearDiffusion>);
    return {.alpha = s.alpha, .seed = s.source, .seed_bias = 1.0, .tol = s.tol};
  }
}

/// Dispatches the runtime AlgoKind to a typed callback `f(program)`.
template <class F>
decltype(auto) with_program(const StageSpec& s, F&& f) {
  switch (s.algo) {
    case AlgoKind::kSssp: return f(make_program<algos::SSSP>(s));
    case AlgoKind::kBfs: return f(make_program<algos::BFS>(s));
    case AlgoKind::kCc:
      return f(make_program<algos::ConnectedComponents>(s));
    case AlgoKind::kKcore: return f(make_program<algos::KCore>(s));
    case AlgoKind::kPagerank:
      return f(make_program<algos::PageRankDelta>(s));
    case AlgoKind::kWidest: return f(make_program<algos::WidestPath>(s));
    case AlgoKind::kDiffusion:
      return f(make_program<algos::LinearDiffusion>(s));
  }
  throw std::logic_error("plan: unknown AlgoKind");
}

/// Canonical bit image of one vertex's state; one fixed layout per
/// algorithm so digests compare across lowerings without the type.
template <class VD>
void append_digest(const VD& v, std::vector<std::uint64_t>& out) {
  if constexpr (std::is_same_v<VD, algos::SSSP::VData>) {
    out.push_back(std::bit_cast<std::uint64_t>(v.dist));
  } else if constexpr (std::is_same_v<VD, algos::BFS::VData>) {
    out.push_back(v.depth);
  } else if constexpr (std::is_same_v<VD, algos::ConnectedComponents::VData>) {
    out.push_back(v.label);
  } else if constexpr (std::is_same_v<VD, algos::KCore::VData>) {
    out.push_back((static_cast<std::uint64_t>(v.core) << 1) |
                  (v.deleted ? 1u : 0u));
  } else if constexpr (std::is_same_v<VD, algos::PageRankDelta::VData>) {
    out.push_back(std::bit_cast<std::uint64_t>(v.rank));
    out.push_back(std::bit_cast<std::uint64_t>(v.pending_delta));
  } else if constexpr (std::is_same_v<VD, algos::WidestPath::VData>) {
    out.push_back(std::bit_cast<std::uint64_t>(v.capacity));
  } else {
    static_assert(std::is_same_v<VD, algos::LinearDiffusion::VData>);
    out.push_back(std::bit_cast<std::uint64_t>(v.value));
    out.push_back(std::bit_cast<std::uint64_t>(v.pending_delta));
  }
}

/// The stage handoff rule: what scope this stage passes downstream.
/// Traversal reach is derived from the result data (first apply always
/// improves the init value, so finite/nonzero == reached) — identical bits
/// across lowerings imply identical scopes. Only diffusion needs the
/// engine-reported touched set (zero-sum message cancellation can leave the
/// value unchanged); diffusion is never fused, so touched is lane-pure.
template <class VD>
std::shared_ptr<const VertexScope> derive_scope(
    const StageSpec& spec, const std::shared_ptr<const VertexScope>& scope_in,
    const std::vector<VD>& data, const std::vector<vid_t>& touched) {
  if constexpr (std::is_same_v<VD, algos::SSSP::VData>) {
    return scope_in->restrict(
        [&](vid_t g) { return data[g].dist < std::numeric_limits<double>::infinity(); });
  } else if constexpr (std::is_same_v<VD, algos::BFS::VData>) {
    return scope_in->restrict([&](vid_t g) {
      return data[g].depth != std::numeric_limits<std::uint32_t>::max();
    });
  } else if constexpr (std::is_same_v<VD, algos::WidestPath::VData>) {
    return scope_in->restrict([&](vid_t g) { return data[g].capacity > 0.0; });
  } else if constexpr (std::is_same_v<VD, algos::KCore::VData>) {
    return scope_in->restrict([&](vid_t g) { return !data[g].deleted; });
  } else if constexpr (std::is_same_v<VD,
                                      algos::ConnectedComponents::VData>) {
    if (!spec.has_source) return scope_in;  // pass-through
    const vid_t seed_label = data[spec.source].label;
    return scope_in->restrict(
        [&](vid_t g) { return data[g].label == seed_label; });
  } else if constexpr (std::is_same_v<VD, algos::PageRankDelta::VData>) {
    return scope_in;  // pass-through
  } else {
    static_assert(std::is_same_v<VD, algos::LinearDiffusion::VData>);
    std::vector<std::uint8_t> hit(scope_in->mask.size(), 0);
    for (const vid_t g : touched) hit[g] = 1;
    return scope_in->restrict([&](vid_t g) { return hit[g] != 0; });
  }
}

template <class VD>
StageOutcome finish_outcome(const StageSpec& spec,
                            const std::shared_ptr<const VertexScope>& scope_in,
                            std::vector<VD>&& data,
                            const std::vector<vid_t>& touched, bool converged,
                            std::uint64_t supersteps) {
  StageOutcome o;
  o.algo = spec.algo;
  o.converged = converged;
  o.supersteps = supersteps;
  o.digest.reserve(data.size());
  for (const VD& v : data) append_digest(v, o.digest);
  o.scope_out = derive_scope(spec, scope_in, data, touched);
  auto owned = std::make_shared<const std::vector<VD>>(std::move(data));
  o.data_type = &typeid(VD);
  o.data = std::shared_ptr<const void>(owned, owned.get());
  return o;
}

bool exact_algo(AlgoKind a) {
  // Integer semilattice / counting programs whose fixpoint is
  // schedule-invariant — safe to fuse on any engine.
  return a == AlgoKind::kBfs || a == AlgoKind::kCc || a == AlgoKind::kKcore;
}

bool passes_scope_through(const StageSpec& s) {
  return s.algo == AlgoKind::kPagerank ||
         (s.algo == AlgoKind::kCc && !s.has_source);
}

/// One executed engine-run group (1 stage, or 2 when fused).
struct GroupRun {
  StageOutcome outcomes[2];
  int n = 0;
  bool converged = false;
  std::uint64_t supersteps = 0;
  std::uint64_t state_bytes = 0;  // the run's peak engine state
};

template <class PA, class PB>
GroupRun run_fused_pair(const StageSpec& sa, const StageSpec& sb,
                        const engine::RunConfig& cfg,
                        const partition::DistributedGraph& dg,
                        const std::shared_ptr<const VertexScope>& scope,
                        const ScopeMask& mask, sim::Cluster& cluster) {
  Fused<Scoped<PA>, Scoped<PB>> prog{{make_program<PA>(sa), mask},
                                     {make_program<PB>(sb), mask}};
  auto res = engine::run(cfg, dg, prog, cluster);
  const std::size_t n = res.data.size();
  std::vector<typename PA::VData> da(n);
  std::vector<typename PB::VData> db(n);
  for (std::size_t v = 0; v < n; ++v) {
    da[v] = res.data[v].a;
    db[v] = res.data[v].b;
  }
  GroupRun g;
  g.n = 2;
  g.converged = res.converged;
  g.supersteps = res.supersteps;
  g.state_bytes = res.metrics.state_bytes;
  g.outcomes[0] = finish_outcome(sa, scope, std::move(da),
                                 res.handoff.touched, res.converged,
                                 res.supersteps);
  // The second lane's scope_in is the first lane's handoff; fusion legality
  // guarantees it is the unchanged input scope.
  g.outcomes[1] = finish_outcome(sb, g.outcomes[0].scope_out, std::move(db),
                                 res.handoff.touched, res.converged,
                                 res.supersteps);
  return g;
}

}  // namespace

bool fusable(const StageSpec& a, const StageSpec& b, engine::EngineKind kind) {
  if (!passes_scope_through(a)) return false;
  const bool whitelisted =
      (a.algo == AlgoKind::kCc && b.algo == AlgoKind::kKcore) ||
      (a.algo == AlgoKind::kPagerank &&
       (b.algo == AlgoKind::kSssp || b.algo == AlgoKind::kBfs));
  if (!whitelisted) return false;
  if (needs_symmetrized(a.algo) != needs_symmetrized(b.algo)) return false;
  // Sync lanes are provably bit-decoupled; other engines need both lanes'
  // fixpoints to be schedule-invariant (exact integer programs).
  return kind == engine::EngineKind::kSync ||
         (exact_algo(a.algo) && exact_algo(b.algo));
}

Executor::Executor(Graph g, machine_t machines,
                   partition::PartitionOptions popts,
                   partition::ArtifactCache* cache, std::size_t threads)
    : g_(std::move(g)),
      machines_(machines),
      popts_(popts),
      cache_(cache),
      threads_(threads) {
  require(machines_ > 0, "plan: need at least one machine");
}

const Graph& Executor::view(bool symmetrized) {
  if (!symmetrized) return g_;
  if (!sym_) sym_ = g_.symmetrized();
  return *sym_;
}

PipelineResult Executor::run(const Pipeline& pipe, const LowerOptions& opts) {
  require(!pipe.empty(), "plan: empty pipeline");
  const std::vector<StageSpec>& specs = pipe.stages();
  const std::size_t n = specs.size();
  for (const StageSpec& s : specs) {
    require(!s.has_source || s.source < g_.num_vertices(),
            "plan: stage source out of range: " + s.to_string());
  }

  // Resolve per-stage engines and warm-start flags (both are semantic: the
  // sequential baseline resolves them identically).
  std::vector<engine::EngineKind> kinds(n);
  std::vector<char> warm(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    kinds[i] = specs[i].engine.empty()
                   ? opts.default_engine
                   : engine::engine_kind_from_string(specs[i].engine);
    warm[i] = i > 0 && specs[i].algo == AlgoKind::kPagerank &&
              specs[i - 1].algo == AlgoKind::kPagerank;
  }

  // Group adjacent fusable stages (pairs only).
  struct Group {
    std::size_t first = 0;
    std::size_t size = 1;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < n;) {
    if (opts.fuse && i + 1 < n && !warm[i] && !warm[i + 1] &&
        kinds[i] == kinds[i + 1] &&
        fusable(specs[i], specs[i + 1], kinds[i])) {
      groups.push_back({i, 2});
      i += 2;
    } else {
      groups.push_back({i, 1});
      i += 1;
    }
  }

  // Merkle prefix-chain keys: stage i's key commits to the whole lowering
  // environment and every stage before it, so memo hits are exactly
  // shared-prefix replays.
  std::uint64_t key = mix(0x5a7a9cafe, g_.content_hash());
  key = mix(key, machines_);
  key = mix(key, static_cast<std::uint64_t>(popts_.kind));
  key = mix(key, popts_.seed);
  key = mix(key, popts_.hybrid_threshold);
  key = mix(key, opts.split.enabled ? 1 : 0);
  key = mix_double(key, opts.split.t_extra);
  key = mix_double(key, opts.split.teps);
  key = mix_double(key, opts.split.high_degree_percentile);
  key = mix(key, opts.split.low_degree_bound);
  key = mix(key, opts.max_supersteps);
  key = mix(key, opts.staleness);
  key = mix(key, static_cast<std::uint64_t>(opts.comm_policy));
  key = mix(key, static_cast<std::uint64_t>(opts.interval.policy));
  key = mix_double(key, opts.interval.ev_ratio_threshold);
  key = mix_double(key, opts.interval.trend_threshold);
  key = mix_double(key, opts.interval.local_budget_factor);
  key = mix(key, (opts.fuse ? 2 : 0) | (opts.carry_frontiers ? 1 : 0));
  std::vector<std::uint64_t> stage_key(n);
  for (std::size_t i = 0; i < n; ++i) {
    key = mix_string(key, specs[i].to_string());
    key = mix(key, static_cast<std::uint64_t>(kinds[i]));
    key = mix(key, warm[i] ? 1 : 0);
    stage_key[i] = key;
  }

  PipelineResult out;
  out.stages.resize(n);
  out.outcomes.resize(n);
  sim::Cluster cluster(sim::ClusterConfig{machines_, {}, threads_});
  std::uint64_t peak_state = 0;

  std::shared_ptr<const VertexScope> scope =
      VertexScope::full(g_.num_vertices());

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& grp = groups[gi];
    const bool fused = grp.size == 2;

    // Fill the static parts of the reports up front.
    for (std::size_t j = 0; j < grp.size; ++j) {
      const std::size_t i = grp.first + j;
      StageReport& r = out.stages[i];
      r.stage = specs[i].to_string();
      r.engine = kinds[i];
      r.group = gi;
      r.fused = fused;
      r.warm = warm[i] != 0;
    }
    out.stages[grp.first].scope_size = scope->size();

    // Stage-outcome memo: replay the whole group iff every stage hits.
    bool all_hit = opts.reuse_stages;
    for (std::size_t j = 0; all_hit && j < grp.size; ++j) {
      all_hit = memo_.contains(stage_key[grp.first + j]);
    }
    if (all_hit) {
      for (std::size_t j = 0; j < grp.size; ++j) {
        const std::size_t i = grp.first + j;
        const StageOutcome& o = *memo_.at(stage_key[i]);
        out.outcomes[i] = o;
        StageReport& r = out.stages[i];
        r.reused = true;
        r.converged = o.converged;
        r.supersteps = o.supersteps;
        if (j + 1 < grp.size) out.stages[i + 1].scope_size = o.scope_out->size();
        scope = o.scope_out;
        out.converged = out.converged && o.converged;
      }
      if (opts.tracer) {
        opts.tracer->record_setup({.kind = sim::SpanKind::kPlanLower,
                                   .items = grp.size,
                                   .cache_hit = true});
      }
      continue;
    }

    // Materialize this group's graph view (all stages of a fused group share
    // one view by fusion legality). The parallel-edges split plan only
    // applies to the lazy engines — eager engines run on unsplit graphs,
    // the same rule the differential oracle enforces everywhere else.
    const bool sym = needs_symmetrized(specs[grp.first].algo);
    const bool lazy_kind =
        kinds[grp.first] == engine::EngineKind::kLazyBlock ||
        kinds[grp.first] == engine::EngineKind::kLazyVertex;
    const partition::EdgeSplitterOptions split =
        lazy_kind ? opts.split
                  : partition::EdgeSplitterOptions{.enabled = false};
    const Graph& gv = view(sym);
    std::shared_ptr<const partition::DistributedGraph> dg;
    if (opts.reuse_artifacts && cache_) {
      const partition::ArtifactStats before = cache_->stats();
      dg = cache_->dgraph(gv, machines_, popts_, split, threads_);
      const partition::ArtifactStats after = cache_->stats();
      const bool part_hit = after.assignment_misses == before.assignment_misses;
      const bool build_hit = after.dgraph_misses == before.dgraph_misses;
      out.partitions_computed +=
          after.assignment_misses - before.assignment_misses;
      out.builds_computed += after.dgraph_misses - before.dgraph_misses;
      if (opts.tracer) {
        opts.tracer->record_setup(
            {.kind = sim::SpanKind::kPartition,
             .duration_seconds =
                 part_hit ? 0.0
                          : after.partition_seconds - before.partition_seconds,
             .items = gv.num_edges(),
             .cache_hit = part_hit});
        opts.tracer->record_setup(
            {.kind = sim::SpanKind::kBuild,
             .duration_seconds =
                 build_hit ? 0.0 : after.build_seconds - before.build_seconds,
             .items = dg->total_local_edges(),
             .cache_hit = build_hit});
      }
    } else {
      // Composed-without-cache lowerings still build each view once; the
      // sequential baseline (reuse_artifacts = false) goes cold every group.
      std::uint64_t vkey = mix(sym ? 1 : 0, split.enabled ? 1 : 0);
      vkey = mix_double(vkey, split.t_extra);
      vkey = mix_double(vkey, split.teps);
      vkey = mix_double(vkey, split.high_degree_percentile);
      vkey = mix(vkey, split.low_degree_bound);
      if (opts.reuse_artifacts) {
        for (const ViewSlot& v : views_) {
          if (v.key == vkey) dg = v.dg;
        }
      }
      if (!dg) {
        Clock::time_point t0 = Clock::now();
        const partition::Assignment assignment =
            partition::assign_edges(gv, machines_, popts_);
        const double part_s = seconds_since(t0);
        ++out.partitions_computed;
        std::vector<std::uint64_t> split_edges;
        if (split.enabled && split.t_extra > 0.0) {
          split_edges = partition::select_split_edges(gv, machines_, split);
        }
        t0 = Clock::now();
        dg = std::make_shared<const partition::DistributedGraph>(
            partition::DistributedGraph::build(gv, machines_, assignment,
                                               split_edges, threads_));
        const double build_s = seconds_since(t0);
        ++out.builds_computed;
        if (opts.tracer) {
          opts.tracer->record_setup({.kind = sim::SpanKind::kPartition,
                                     .duration_seconds = part_s,
                                     .items = gv.num_edges()});
          opts.tracer->record_setup({.kind = sim::SpanKind::kBuild,
                                     .duration_seconds = build_s,
                                     .items = dg->total_local_edges()});
        }
        if (opts.reuse_artifacts) views_.push_back({dg, vkey});
      }
    }

    // Carried frontier: the downstream scope's full member list (never a
    // narrower touched set — bit-identity requires covering every vertex the
    // scoped program initializes). Skipped for a full scope, where the
    // injected list would equal the full scan it replaces.
    const std::vector<vid_t>* frontier = nullptr;
    if (opts.carry_frontiers && !scope->is_full()) {
      frontier = &scope->members;
      // An empty scope still injects (the run then initializes nothing) but
      // is not a carry worth tracing: StageReport::carried_frontier == 0
      // means "none", and the trace must agree with the report.
      if (opts.tracer && !frontier->empty()) {
        opts.tracer->record_setup({.kind = sim::SpanKind::kPlanCarry,
                                   .items = frontier->size()});
      }
    }

    engine::RunConfig cfg;
    cfg.kind = kinds[grp.first];
    cfg.max_supersteps = opts.max_supersteps;
    cfg.tracer = opts.tracer;
    cfg.interval = opts.interval;
    cfg.comm_policy = opts.comm_policy;
    cfg.staleness = opts.staleness;
    cfg.initial_frontier = frontier;

    const ScopeMask mask =
        scope->is_full() ? ScopeMask{}
                         : ScopeMask(scope, &scope->mask);

    const sim::SimMetrics before = cluster.metrics();
    const Clock::time_point run0 = Clock::now();
    GroupRun run;
    if (fused) {
      const StageSpec& sa = specs[grp.first];
      const StageSpec& sb = specs[grp.first + 1];
      if (sa.algo == AlgoKind::kCc && sb.algo == AlgoKind::kKcore) {
        run = run_fused_pair<algos::ConnectedComponents, algos::KCore>(
            sa, sb, cfg, *dg, scope, mask, cluster);
      } else if (sa.algo == AlgoKind::kPagerank &&
                 sb.algo == AlgoKind::kSssp) {
        run = run_fused_pair<algos::PageRankDelta, algos::SSSP>(
            sa, sb, cfg, *dg, scope, mask, cluster);
      } else if (sa.algo == AlgoKind::kPagerank && sb.algo == AlgoKind::kBfs) {
        run = run_fused_pair<algos::PageRankDelta, algos::BFS>(
            sa, sb, cfg, *dg, scope, mask, cluster);
      } else {
        throw std::logic_error("plan: fused pair outside the whitelist");
      }
    } else if (warm[grp.first]) {
      // pagerank |> pagerank refinement: Warm program over the carried
      // converged state (semantic — the sequential baseline does the same).
      const StageSpec& s = specs[grp.first];
      const auto& seed_state =
          *static_cast<const std::vector<algos::PageRankDelta::VData>*>(
              out.outcomes[grp.first - 1].data.get());
      cfg.initial_state = &seed_state;
      Warm<algos::PageRankDelta> prog{make_program<algos::PageRankDelta>(s),
                                      mask};
      auto res = engine::run(cfg, *dg, prog, cluster);
      run.n = 1;
      run.converged = res.converged;
      run.supersteps = res.supersteps;
      run.state_bytes = res.metrics.state_bytes;
      run.outcomes[0] =
          finish_outcome(s, scope, std::move(res.data), res.handoff.touched,
                         res.converged, res.supersteps);
    } else {
      const StageSpec& s = specs[grp.first];
      run = with_program(s, [&](auto inner) {
        using P = decltype(inner);
        Scoped<P> prog{std::move(inner), mask};
        auto res = engine::run(cfg, *dg, prog, cluster);
        GroupRun g;
        g.n = 1;
        g.converged = res.converged;
        g.supersteps = res.supersteps;
        g.state_bytes = res.metrics.state_bytes;
        g.outcomes[0] =
            finish_outcome(s, scope, std::move(res.data), res.handoff.touched,
                           res.converged, res.supersteps);
        return g;
      });
    }
    const double run_wall = seconds_since(run0);
    ++out.engine_runs;
    peak_state = std::max(peak_state, run.state_bytes);
    const sim::SimMetrics after = cluster.metrics();
    if (opts.tracer) {
      opts.tracer->record_setup({.kind = sim::SpanKind::kPlanLower,
                                 .duration_seconds = run_wall,
                                 .items = grp.size});
    }

    for (std::size_t j = 0; j < grp.size; ++j) {
      const std::size_t i = grp.first + j;
      StageOutcome& o = run.outcomes[j];
      StageReport& r = out.stages[i];
      r.carried_frontier = frontier ? frontier->size() : 0;
      r.converged = o.converged;
      r.supersteps = o.supersteps;
      r.sim_seconds = after.sim_seconds() - before.sim_seconds();
      r.sweep_scanned = after.sweep_scanned - before.sweep_scanned;
      r.global_syncs = after.global_syncs - before.global_syncs;
      r.network_bytes = after.network_bytes - before.network_bytes;
      if (j + 1 < grp.size) out.stages[i + 1].scope_size = o.scope_out->size();
      scope = o.scope_out;
      out.converged = out.converged && o.converged;
      if (opts.reuse_stages) {
        memo_[stage_key[i]] = std::make_shared<const StageOutcome>(o);
      }
      out.outcomes[i] = std::move(o);
    }
  }

  // The cluster's metrics carry no engine state (finalize_result stamps it
  // on each run's own copy), so the lowering reports the groups' peak.
  out.metrics = cluster.metrics();
  out.metrics.state_bytes = peak_state;
  return out;
}

}  // namespace lazygraph::plan
