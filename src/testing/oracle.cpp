#include "testing/oracle.hpp"

#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/diffusion.hpp"
#include "algos/kcore.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "algos/widest_path.hpp"
#include "engine/run.hpp"
#include "graph/reference.hpp"
#include "partition/artifact_cache.hpp"
#include "partition/dgraph.hpp"
#include "partition/edge_splitter.hpp"
#include "plan/executor.hpp"
#include "plan/pipeline.hpp"
#include "serve/executor.hpp"
#include "serve/verify.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace lazygraph::testing {
namespace {

using engine::EngineKind;

constexpr EngineKind kAllEngines[] = {EngineKind::kSync, EngineKind::kAsync,
                                      EngineKind::kLazyBlock,
                                      EngineKind::kLazyVertex};

bool is_lazy(EngineKind k) {
  return k == EngineKind::kLazyBlock || k == EngineKind::kLazyVertex;
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Names the first counter (or the simulated seconds) that differs between
/// two runs' metrics; nullopt when every one is equal.
std::optional<std::string> compare_metrics(const sim::SimMetrics& a,
                                           const sim::SimMetrics& b) {
  const struct {
    const char* name;
    std::uint64_t sim::SimMetrics::*field;
  } counters[] = {
      {"supersteps", &sim::SimMetrics::supersteps},
      {"global_syncs", &sim::SimMetrics::global_syncs},
      {"network_messages", &sim::SimMetrics::network_messages},
      {"network_bytes", &sim::SimMetrics::network_bytes},
      {"applies", &sim::SimMetrics::applies},
      {"edge_traversals", &sim::SimMetrics::edge_traversals},
      {"sweep_scanned", &sim::SimMetrics::sweep_scanned},
      {"exchange_bytes_raw", &sim::SimMetrics::exchange_bytes_raw},
      {"exchange_bytes_wire", &sim::SimMetrics::exchange_bytes_wire},
      {"state_bytes", &sim::SimMetrics::state_bytes},
  };
  for (const auto& c : counters) {
    if (a.*c.field != b.*c.field) {
      return std::string(c.name) + " " + std::to_string(a.*c.field) +
             " vs " + std::to_string(b.*c.field);
    }
  }
  if (a.sim_seconds() != b.sim_seconds()) {
    return "sim_seconds " + num(a.sim_seconds()) + " vs " +
           num(b.sim_seconds());
  }
  return std::nullopt;
}

/// The engine configuration a scenario runs `kind` with.
engine::RunConfig run_config(EngineKind kind, const Scenario& s,
                             const OracleOptions& o) {
  engine::RunConfig cfg;
  cfg.kind = kind;
  cfg.max_supersteps = o.max_supersteps;
  cfg.threads_per_machine = s.threads_per_machine;
  cfg.sweep = s.sweep;
  cfg.interval.policy = s.interval_policy;
  cfg.comm_policy = s.comm_policy;
  cfg.staleness = s.staleness;
  return cfg;
}

/// Everything one engine run produced that the invariant checks consume.
template <class P>
struct RunOutput {
  engine::RunResult<P> result;
  sim::Tracer tracer;
  double sim_seconds = 0.0;
  std::optional<std::string> coherency_failure;
};

/// Runs one engine on `dg` with a fresh cluster, optionally watching replica
/// views at every coherency point the engine reports.
template <class P, class ReplicaEq, class EagerEq>
RunOutput<P> run_one(EngineKind kind, const partition::DistributedGraph& dg,
                     const P& prog, const Scenario& s, const OracleOptions& o,
                     std::size_t threads, bool with_tracer, bool with_inspector,
                     ReplicaEq lazy_replica_eq, EagerEq eager_eq,
                     const sim::FailurePlan* failures = nullptr) {
  RunOutput<P> out;
  sim::ClusterConfig cc{s.machines, {}, threads};
  if (failures) cc.failures = *failures;
  sim::Cluster cluster(cc);
  if (with_tracer) {
    cluster.set_tracer(&out.tracer);
    out.tracer.set_run_info(engine::to_string(kind), to_string(s.program));
  }

  // Parallel-edges graphs deliver split-edge scatters eagerly through
  // per-machine edge copies, and the source replicas emit differently
  // grouped payload sequences — so lazy-block's intermediate views
  // legitimately differ and identical views are only promised at
  // termination: there only the latest call's verdict counts, and only for
  // a converged run (whose latest call saw the terminal state). Everywhere
  // else the first divergence sticks.
  const bool terminal_only = kind == EngineKind::kLazyBlock &&
                             dg.parallel_edge_copies() > 0;
  std::optional<std::string> verdict;
  // Eager engines replicate vdata by assignment (broadcast), so replicas
  // must be bitwise identical; the lazy engines re-derive each replica's
  // view from the same delta multiset, so floating-point programs compare
  // with the program's association tolerance.
  auto make_inspector = [&](auto eq) -> engine::CoherencyInspector<P> {
    return [&dg, &verdict, terminal_only, eq](
               std::uint64_t superstep,
               const std::vector<engine::PartState<P>>& states) {
      if (verdict && !terminal_only) return;
      verdict.reset();
      for (machine_t m = 0; m < dg.num_machines(); ++m) {
        const partition::Part& part = dg.part(m);
        for (lvid_t v = 0; v < part.num_local(); ++v) {
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            if (r < m) continue;  // each pair once
            if (eq(states[m].vdata[v], states[r].vdata[rl])) continue;
            std::ostringstream os;
            os << "replicas of vertex " << part.gids[v]
               << " diverge between machines " << m << " and " << r
               << " at coherency point of superstep " << superstep;
            verdict = os.str();
            return;
          }
        }
      }
    };
  };
  engine::CoherencyInspector<P> inspect;
  if (with_inspector) {
    inspect = is_lazy(kind) ? make_inspector(lazy_replica_eq)
                            : make_inspector(eager_eq);
  }
  out.result = engine::run(run_config(kind, s, o), dg, prog, cluster,
                           std::move(inspect));
  if (!terminal_only || out.result.converged) {
    out.coherency_failure = verdict;
  }
  out.sim_seconds = cluster.metrics().sim_seconds();
  return out;
}

/// The per-run invariants that do not involve the reference fixed point.
template <class P>
std::optional<std::string> check_run_invariants(const RunOutput<P>& out,
                                                vid_t num_vertices,
                                                const OracleOptions& o,
                                                bool with_tracer) {
  if (!out.result.converged) {
    return "did not converge within " + std::to_string(o.max_supersteps) +
           " supersteps";
  }
  if (out.result.data.size() != num_vertices) {
    return "result has " + std::to_string(out.result.data.size()) +
           " vertices, graph has " + std::to_string(num_vertices);
  }
  if (out.coherency_failure) return out.coherency_failure;
  if (out.result.metrics.supersteps != out.result.supersteps) {
    return "metrics count " + std::to_string(out.result.metrics.supersteps) +
           " supersteps, result reports " +
           std::to_string(out.result.supersteps);
  }
  // The wire codec never charges more than the uncompressed fallback.
  if (out.result.metrics.exchange_bytes_wire >
      out.result.metrics.exchange_bytes_raw) {
    return "exchange wire bytes " +
           std::to_string(out.result.metrics.exchange_bytes_wire) +
           " exceed raw bytes " +
           std::to_string(out.result.metrics.exchange_bytes_raw);
  }
  if (!with_tracer || !o.check_trace) return std::nullopt;

  const sim::Tracer& t = out.tracer;
  if (t.snapshots().size() != out.result.supersteps) {
    return "trace has " + std::to_string(t.snapshots().size()) +
           " superstep snapshots for " + std::to_string(out.result.supersteps) +
           " supersteps";
  }
  // Spans must tile [0, sim_seconds): every simulated second flows through
  // exactly one charge_* helper, each appending exactly one span.
  const double total = t.total_span_seconds();
  const double sim = out.sim_seconds;
  if (std::abs(total - sim) > 1e-9 * std::max(1.0, std::abs(sim))) {
    return "span seconds " + num(total) + " do not sum to sim_seconds " +
           num(sim);
  }
  double cursor = 0.0;
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const sim::TraceSpan& span = t.spans()[i];
    if (std::abs(span.start_seconds - cursor) >
        1e-12 * std::max(1.0, cursor)) {
      return "span " + std::to_string(i) + " starts at " +
             num(span.start_seconds) + ", previous spans end at " +
             num(cursor);
    }
    if (span.duration_seconds < 0.0) {
      return "span " + std::to_string(i) + " has negative duration";
    }
    cursor = span.start_seconds + span.duration_seconds;
  }
  // Exact-size accounting: every raw/wire-bearing span's byte counts must
  // sum to the metric totals (raw_bytes == 0 marks spans with no raw/wire
  // distinction — guard, recovery, barriers, compute).
  std::uint64_t span_raw = 0, span_wire = 0;
  for (const sim::TraceSpan& span : t.spans()) {
    if (span.raw_bytes == 0) continue;
    span_raw += span.raw_bytes;
    span_wire += span.bytes;
  }
  if (span_raw != out.result.metrics.exchange_bytes_raw ||
      span_wire != out.result.metrics.exchange_bytes_wire) {
    return "span raw/wire byte sums " + std::to_string(span_raw) + "/" +
           std::to_string(span_wire) + " do not match metrics " +
           std::to_string(out.result.metrics.exchange_bytes_raw) + "/" +
           std::to_string(out.result.metrics.exchange_bytes_wire);
  }
  return std::nullopt;
}

/// Runs the scenario's program through all four engines plus the
/// determinism re-runs. `against_ref(data)` compares a result vector with
/// the reference fixed point; `replica_eq` compares replica views of the
/// lazy engines at coherency points; `bit_eq` is exact-result equality for
/// the determinism checks.
template <class P, class AgainstRef, class ReplicaEq, class BitEq>
std::optional<std::string> run_program(const Scenario& s,
                                       const OracleOptions& o, const Graph& g,
                                       const P& prog, AgainstRef against_ref,
                                       ReplicaEq replica_eq, BitEq bit_eq) {
  // Partition/build through the artifact cache: the fuzz loop revisits the
  // same (graph, machines, cut, seed) scenario across engines and shrink
  // steps, and the content-keyed cache makes those replays free without
  // changing what gets built (cached artifacts are bit-identical).
  partition::ArtifactCache& cache = partition::ArtifactCache::global();
  const partition::PartitionOptions popts{.kind = s.cut,
                                          .seed = s.partition_seed};
  const auto dg_plain_p =
      cache.dgraph(g, s.machines, popts, {.enabled = false});
  std::shared_ptr<const partition::DistributedGraph> dg_split_p;
  if (s.split) {
    partition::EdgeSplitterOptions eso;
    eso.t_extra = 0.001;
    dg_split_p = cache.dgraph(g, s.machines, popts, eso);
  }
  const auto& dg_plain = *dg_plain_p;
  // Eager engines require unsplit graphs; the lazy engines take the
  // parallel-edges version when the scenario asks for it. Both views must
  // reach the same user-level fixed point.
  const auto& dg_lazy = dg_split_p ? *dg_split_p : dg_plain;

  bool injected = false;
  // Failure-free baselines, kept per engine for the fault-injection branch's
  // bit-identity comparison below.
  std::vector<std::vector<typename P::VData>> base_data;
  std::vector<std::uint64_t> base_steps;
  std::vector<double> base_seconds;
  for (EngineKind kind : kAllEngines) {
    const auto& dg = is_lazy(kind) ? dg_lazy : dg_plain;
    auto out = run_one(kind, dg, prog, s, o, /*threads=*/1,
                       /*with_tracer=*/true,
                       /*with_inspector=*/o.check_replica_coherency,
                       replica_eq, bit_eq);
    if (o.inject_result_error && !injected && !out.result.data.empty()) {
      // Oracle self-test: corrupt one byte of one output and make sure the
      // reference comparison notices.
      auto* bytes = reinterpret_cast<unsigned char*>(&out.result.data[0]);
      bytes[0] ^= 0x5a;
      injected = true;
    }
    std::optional<std::string> f =
        check_run_invariants(out, g.num_vertices(), o, /*with_tracer=*/true);
    if (!f) f = against_ref(out.result.data);
    if (f) return std::string(engine::to_string(kind)) + ": " + *f;
    base_data.push_back(std::move(out.result.data));
    base_steps.push_back(out.result.supersteps);
    base_seconds.push_back(out.sim_seconds);
  }

  // --- Forced sweep directions: push, pull and adaptive must agree. ---
  // The direction only changes which thread folds each target's messages,
  // never the per-target fold order, so the converged bits, the trajectory
  // length and the simulated time (work counters are direction-invariant)
  // must all match the baseline exactly. Pinned on one deterministically
  // picked direction-sensitive engine (sync scatter / lazy-block sweeps).
  if (o.check_determinism) {
    const bool pick_lazy =
        (mix64(s.seed ^ s.partition_seed ^ 0x5eedd125ULL) & 1) != 0;
    const EngineKind kind =
        pick_lazy ? EngineKind::kLazyBlock : EngineKind::kSync;
    const std::size_t base_idx = pick_lazy ? 2 : 0;
    const auto& dg = is_lazy(kind) ? dg_lazy : dg_plain;
    for (const engine::SweepDirection dir :
         {engine::SweepDirection::kPush, engine::SweepDirection::kPull,
          engine::SweepDirection::kAdaptive}) {
      if (dir == s.sweep) continue;  // the baseline already ran this one
      Scenario forced = s;
      forced.sweep = dir;
      const auto out =
          run_one(kind, dg, prog, forced, o, /*threads=*/1,
                  /*with_tracer=*/false, /*with_inspector=*/false, replica_eq,
                  bit_eq);
      std::string why;
      if (!out.result.converged) {
        why = "did not converge";
      } else if (out.result.supersteps != base_steps[base_idx]) {
        why = "superstep count";
      } else if (out.sim_seconds != base_seconds[base_idx]) {
        why = "simulated seconds";
      } else {
        for (vid_t v = 0; v < g.num_vertices(); ++v) {
          if (!bit_eq(out.result.data[v], base_data[base_idx][v])) {
            why = "vertex " + std::to_string(v) + " data";
            break;
          }
        }
      }
      if (!why.empty()) {
        return std::string(engine::to_string(kind)) + ": forced " +
               engine::to_string(dir) + " sweep not bit-identical to " +
               engine::to_string(s.sweep) + " baseline (" + why + ")";
      }
    }
  }

  // --- Fault injection: kill + recover must be invisible in the results. ---
  const sim::FailurePlan plan = sim::FailurePlan::parse(s.kill);
  if (plan.enabled()) {
    for (std::size_t i = 0; i < std::size(kAllEngines); ++i) {
      const EngineKind kind = kAllEngines[i];
      const auto& dg = is_lazy(kind) ? dg_lazy : dg_plain;
      const std::string tag =
          std::string(engine::to_string(kind)) + " (kill " + s.kill + "): ";
      auto out = run_one(kind, dg, prog, s, o, /*threads=*/1,
                         /*with_tracer=*/true,
                         /*with_inspector=*/o.check_replica_coherency,
                         replica_eq, bit_eq, &plan);
      // Run invariants — including replica coherency at every
      // post-recovery coherency point and the exact trace tiling, which the
      // kGuard/kRecovery spans must preserve.
      std::optional<std::string> f =
          check_run_invariants(out, g.num_vertices(), o, /*with_tracer=*/true);
      if (f) return tag + *f;
      // Bit-identity with the failure-free run: same trajectory length,
      // identical converged bits.
      if (out.result.supersteps != base_steps[i]) {
        return tag + "took " + std::to_string(out.result.supersteps) +
               " supersteps, failure-free run took " +
               std::to_string(base_steps[i]);
      }
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        if (!bit_eq(out.result.data[v], base_data[i][v])) {
          return tag + "vertex " + std::to_string(v) +
                 " not bit-identical to the failure-free run";
        }
      }
      // Recovery must cost something, never save time.
      if (out.sim_seconds < base_seconds[i]) {
        return tag + "simulated time " + num(out.sim_seconds) +
               " below the failure-free run's " + num(base_seconds[i]);
      }
      // Every kill that fell inside the run must surface as exactly one
      // recovery: in the metrics, as a kRecovery span, and as a
      // RecoverySpan whose seconds match the span's duration exactly.
      std::uint64_t expected = 0;
      for (const sim::FailureEvent& e : plan.events) {
        if (e.machine < dg.num_machines() &&
            e.at_superstep <= out.result.supersteps) {
          ++expected;
        }
      }
      if (out.result.metrics.recoveries != expected) {
        return tag + "metrics count " +
               std::to_string(out.result.metrics.recoveries) +
               " recoveries, plan schedules " + std::to_string(expected);
      }
      if (o.check_trace) {
        std::uint64_t recovery_spans = 0;
        double span_seconds = 0.0;
        for (const sim::TraceSpan& sp : out.tracer.spans()) {
          if (sp.kind == sim::SpanKind::kRecovery) {
            ++recovery_spans;
            span_seconds += sp.duration_seconds;
          }
        }
        double recorded_seconds = 0.0;
        for (const sim::RecoverySpan& r : out.tracer.recoveries()) {
          recorded_seconds += r.seconds;
        }
        if (recovery_spans != expected ||
            out.tracer.recoveries().size() != expected) {
          return tag + "trace has " + std::to_string(recovery_spans) +
                 " kRecovery spans / " +
                 std::to_string(out.tracer.recoveries().size()) +
                 " RecoverySpans for " + std::to_string(expected) +
                 " scheduled kills";
        }
        if (recorded_seconds != span_seconds) {
          return tag + "RecoverySpan seconds " + num(recorded_seconds) +
                 " != kRecovery span seconds " + num(span_seconds);
        }
      }
    }

    if (o.check_determinism) {
      // Same seed + same failure plan must reproduce bit-identically.
      const EngineKind kind = kAllEngines[mix64(s.seed ^ s.partition_seed) % 4];
      const auto& dg = is_lazy(kind) ? dg_lazy : dg_plain;
      auto run_fail = [&](std::size_t threads) {
        return run_one(kind, dg, prog, s, o, threads, /*with_tracer=*/false,
                       /*with_inspector=*/false, replica_eq, bit_eq, &plan);
      };
      const auto base = run_fail(1);
      struct Rerun {
        const char* what;
        std::size_t threads;
      };
      for (const Rerun r :
           {Rerun{"repeated failure run", 1}, Rerun{"2-thread failure run", 2}}) {
        const auto again = run_fail(r.threads);
        std::string why;
        if (again.result.supersteps != base.result.supersteps) {
          why = "superstep count";
        } else if (again.sim_seconds != base.sim_seconds) {
          why = "simulated seconds";
        } else if (again.result.metrics.recoveries !=
                   base.result.metrics.recoveries) {
          why = "recovery count";
        } else if (again.result.metrics.exchange_bytes_raw !=
                       base.result.metrics.exchange_bytes_raw ||
                   again.result.metrics.exchange_bytes_wire !=
                       base.result.metrics.exchange_bytes_wire) {
          why = "exchange raw/wire bytes";
        } else {
          for (vid_t v = 0; v < g.num_vertices(); ++v) {
            if (!bit_eq(again.result.data[v], base.result.data[v])) {
              why = "vertex " + std::to_string(v) + " data";
              break;
            }
          }
        }
        if (!why.empty()) {
          return std::string(engine::to_string(kind)) + ": " + r.what +
                 " not bit-identical (" + why + ")";
        }
      }
    }
  }

  if (o.check_determinism) {
    const EngineKind kind = kAllEngines[mix64(s.seed ^ s.partition_seed) % 4];
    const auto& dg = is_lazy(kind) ? dg_lazy : dg_plain;
    auto run_plain = [&](std::size_t threads) {
      return run_one(kind, dg, prog, s, o, threads, /*with_tracer=*/false,
                     /*with_inspector=*/false, replica_eq, bit_eq);
    };
    const auto base = run_plain(1);
    struct Rerun {
      const char* what;
      std::size_t threads;
    };
    for (const Rerun r : {Rerun{"repeated run", 1}, Rerun{"2-thread run", 2}}) {
      const auto again = run_plain(r.threads);
      std::string why;
      if (again.result.supersteps != base.result.supersteps) {
        why = "superstep count";
      } else if (again.sim_seconds != base.sim_seconds) {
        why = "simulated seconds";
      } else if (again.result.metrics.exchange_bytes_raw !=
                     base.result.metrics.exchange_bytes_raw ||
                 again.result.metrics.exchange_bytes_wire !=
                     base.result.metrics.exchange_bytes_wire) {
        why = "exchange raw/wire bytes";
      } else {
        for (vid_t v = 0; v < g.num_vertices(); ++v) {
          if (!bit_eq(again.result.data[v], base.result.data[v])) {
            why = "vertex " + std::to_string(v) + " data";
            break;
          }
        }
      }
      if (!why.empty()) {
        return std::string(engine::to_string(kind)) + ": " + r.what +
               " not bit-identical (" + why + ")";
      }
    }
  }
  return std::nullopt;
}

/// Exact per-vertex comparison against a reference vector.
template <class Get, class Ref>
auto exact_against(const std::vector<Ref>& ref, Get get, const char* what) {
  return [ref, get, what](const auto& data) -> std::optional<std::string> {
    for (std::size_t v = 0; v < ref.size(); ++v) {
      const auto got = get(data[v]);
      if (got == ref[v]) continue;
      std::ostringstream os;
      os << "vertex " << v << " " << what << ": engine " << got
         << " != reference " << ref[v];
      return os.str();
    }
    return std::nullopt;
  };
}

/// Per-vertex comparison within an absolute bound (floating-point programs).
template <class Get>
auto close_against(const std::vector<double>& ref, Get get, const char* what,
                   double bound) {
  return [ref, get, what, bound](const auto& data) -> std::optional<std::string> {
    for (std::size_t v = 0; v < ref.size(); ++v) {
      const double got = get(data[v]);
      if (std::abs(got - ref[v]) <= bound) continue;
      std::ostringstream os;
      os.precision(17);
      os << "vertex " << v << " " << what << ": engine " << got
         << " vs reference " << ref[v] << " differ by more than " << bound;
      return os.str();
    }
    return std::nullopt;
  };
}

/// Near-equality for replica views of additive floating-point programs:
/// replicas fold the same delta multiset in different association orders.
bool fp_close(double a, double b, double slack) {
  return std::abs(a - b) <= slack + 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// First pipeline stage runs at full scope, so its result must match the
/// single-machine reference fixed point like the single-program oracle
/// demands (exactly for the semilattice / integer programs, within the
/// threshold-derived bound for the floating-point ones). CC and k-core run
/// on the executor's symmetrized view, so their references do too.
std::optional<std::string> first_stage_vs_reference(
    const plan::StageSpec& st, const Graph& g,
    const plan::PipelineResult& res) {
  const auto exact = [&](const auto& ref, auto get,
                         const char* what) -> std::optional<std::string> {
    for (std::size_t v = 0; v < ref.size(); ++v) {
      const auto got = get(v);
      if (got == ref[v]) continue;
      std::ostringstream os;
      os << "stage 0 vertex " << v << " " << what << ": plan " << got
         << " != reference " << ref[v];
      return os.str();
    }
    return std::nullopt;
  };
  const auto close = [&](const std::vector<double>& ref, auto get,
                         const char* what,
                         double bound) -> std::optional<std::string> {
    for (std::size_t v = 0; v < ref.size(); ++v) {
      const double got = get(v);
      if (std::abs(got - ref[v]) <= bound) continue;
      std::ostringstream os;
      os.precision(17);
      os << "stage 0 vertex " << v << " " << what << ": plan " << got
         << " vs reference " << ref[v] << " differ by more than " << bound;
      return os.str();
    }
    return std::nullopt;
  };
  switch (st.algo) {
    case plan::AlgoKind::kSssp: {
      const auto& d = res.data_as<algos::SSSP>(0);
      return exact(reference::sssp(g, st.source),
                   [&](std::size_t v) { return d[v].dist; }, "dist");
    }
    case plan::AlgoKind::kBfs: {
      const auto& d = res.data_as<algos::BFS>(0);
      return exact(reference::bfs(g, st.source),
                   [&](std::size_t v) { return d[v].depth; }, "depth");
    }
    case plan::AlgoKind::kCc: {
      const auto& d = res.data_as<algos::ConnectedComponents>(0);
      return exact(reference::connected_components(g.symmetrized()),
                   [&](std::size_t v) { return d[v].label; }, "label");
    }
    case plan::AlgoKind::kKcore: {
      const auto& d = res.data_as<algos::KCore>(0);
      return exact(reference::kcore(g.symmetrized(), st.k),
                   [&](std::size_t v) { return !d[v].deleted; },
                   "k-core membership");
    }
    case plan::AlgoKind::kPagerank: {
      const auto& d = res.data_as<algos::PageRankDelta>(0);
      return close(reference::pagerank(g, 1e-12, 20'000),
                   [&](std::size_t v) { return d[v].rank; }, "rank",
                   300.0 * st.tol);
    }
    case plan::AlgoKind::kWidest: {
      const auto& d = res.data_as<algos::WidestPath>(0);
      return exact(reference::widest_path(g, st.source),
                   [&](std::size_t v) { return d[v].capacity; }, "capacity");
    }
    case plan::AlgoKind::kDiffusion: {
      const auto& d = res.data_as<algos::LinearDiffusion>(0);
      std::vector<double> bias(g.num_vertices(), 0.0);
      if (!bias.empty()) bias[st.source] += 1.0;
      return close(reference::linear_diffusion(g, bias, st.alpha, 1e-13,
                                               50'000),
                   [&](std::size_t v) { return d[v].value; }, "value",
                   300.0 * st.tol / (1.0 - st.alpha));
    }
  }
  return std::nullopt;
}

/// Engines the batch check covers: the eager lockstep baseline plus both
/// lazy engines. (Plain async inspects coherency like sync but interleaves
/// GS rounds off union activity; it is exercised by the server tests, while
/// the fuzz matrix keeps to the three engines with per-lane guarantees.)
constexpr EngineKind kBatchEngines[] = {
    EngineKind::kSync, EngineKind::kLazyBlock, EngineKind::kLazyVertex};

/// Batched-vs-solo differential check for one lane program family.
/// `lazy_slack` bounds fp divergence under the lazy engines (0 = bit-exact
/// everywhere, the rule for every integer / semilattice family).
template <class P>
std::optional<std::string> run_batch_program(const Scenario& s,
                                             const OracleOptions& o,
                                             const Graph& g,
                                             const std::vector<P>& progs,
                                             double lazy_slack) {
  partition::ArtifactCache& cache = partition::ArtifactCache::global();
  const partition::PartitionOptions popts{.kind = s.cut,
                                          .seed = s.partition_seed};
  const auto dg_plain_p =
      cache.dgraph(g, s.machines, popts, {.enabled = false});
  std::shared_ptr<const partition::DistributedGraph> dg_split_p;
  if (s.split) {
    partition::EdgeSplitterOptions eso;
    eso.t_extra = 0.001;
    dg_split_p = cache.dgraph(g, s.machines, popts, eso);
  }

  for (const EngineKind kind : kBatchEngines) {
    const auto& dg =
        is_lazy(kind) && dg_split_p ? *dg_split_p : *dg_plain_p;
    const engine::RunConfig cfg = run_config(kind, s, o);
    const std::string tag =
        std::string(engine::to_string(kind)) + " (batch): ";

    auto run_batch = [&](std::size_t threads) {
      sim::Cluster cluster({s.machines, {}, threads});
      return serve::run_batched(dg, progs, cfg, cluster);
    };
    const auto batched = run_batch(1);
    if (!batched.converged) {
      return tag + "batched run did not converge within " +
             std::to_string(o.max_supersteps) + " supersteps";
    }
    const double slack = is_lazy(kind) ? lazy_slack : 0.0;
    const bool check_points = serve::points_must_match(kind);
    for (std::size_t i = 0; i < progs.size(); ++i) {
      sim::Cluster solo_cluster({s.machines, {}, 1});
      const auto solo = serve::run_solo(dg, progs[i], cfg, solo_cluster);
      if (!solo.converged) {
        return tag + "solo run of lane " + std::to_string(i) +
               " did not converge";
      }
      if (auto f =
              serve::verify_lane(batched.lanes[i], solo, slack, check_points)) {
        return tag + "lane " + std::to_string(i) + ": " + *f;
      }
    }

    if (o.check_determinism) {
      struct Rerun {
        const char* what;
        std::size_t threads;
      };
      for (const Rerun r :
           {Rerun{"repeated batched run", 1}, Rerun{"2-thread batched run", 2}}) {
        const auto again = run_batch(r.threads);
        std::string why;
        if (again.supersteps != batched.supersteps) {
          why = "superstep count";
        } else if (again.coherency_points != batched.coherency_points) {
          why = "coherency point count";
        } else {
          for (std::size_t i = 0; i < progs.size(); ++i) {
            if (serve::lane_digest(again.lanes[i].data) !=
                    serve::lane_digest(batched.lanes[i].data) ||
                again.lanes[i].live_points != batched.lanes[i].live_points) {
              why = "lane " + std::to_string(i);
              break;
            }
          }
        }
        if (!why.empty()) {
          return tag + std::string(r.what) + " not bit-identical (" + why +
                 ")";
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace

Verdict check_batch_scenario(const Scenario& s, const OracleOptions& opts) {
  try {
    if (!s.has_batch()) return {false, "batch scenario: no batch lanes"};
    if (s.has_pipeline()) {
      return {false, "batch scenario: pipelines do not take batch lanes"};
    }
    if (s.machines == 0 || s.machines > 64) {
      return {false, "scenario: machine count out of range"};
    }
    if (!s.needs_source() && s.program != ProgramKind::kKcore) {
      return {false, "batch scenario: program has no per-query parameter"};
    }
    std::vector<std::uint32_t> lanes = s.batch_lanes();
    lanes.insert(lanes.begin(), s.program == ProgramKind::kKcore
                                    ? s.kcore_k
                                    : static_cast<std::uint32_t>(s.source));
    if (lanes.size() > serve::kMaxBatchLanes) {
      return {false, "batch scenario: more than 16 lanes"};
    }
    if (s.needs_source()) {
      // The shrinker may delete vertices out from under a lane source;
      // treat that as vacuously passing so such shrink steps are rejected.
      if (s.num_vertices == 0) return {};
      for (const std::uint32_t src : lanes) {
        if (src >= s.num_vertices) return {};
      }
    }
    const Graph g = s.build_graph();
    std::optional<std::string> f;
    switch (s.program) {
      case ProgramKind::kSssp: {
        std::vector<algos::SSSP> progs;
        for (const std::uint32_t src : lanes) progs.push_back({.source = src});
        f = run_batch_program(s, opts, g, progs, 0.0);
        break;
      }
      case ProgramKind::kBfs: {
        std::vector<algos::BFS> progs;
        for (const std::uint32_t src : lanes) progs.push_back({.source = src});
        f = run_batch_program(s, opts, g, progs, 0.0);
        break;
      }
      case ProgramKind::kWidestPath: {
        std::vector<algos::WidestPath> progs;
        for (const std::uint32_t src : lanes) progs.push_back({.source = src});
        f = run_batch_program(s, opts, g, progs, 0.0);
        break;
      }
      case ProgramKind::kKcore: {
        std::vector<algos::KCore> progs;
        for (const std::uint32_t k : lanes) progs.push_back({.k = k});
        f = run_batch_program(s, opts, g, progs, 0.0);
        break;
      }
      case ProgramKind::kDiffusion: {
        std::vector<algos::LinearDiffusion> progs;
        for (const std::uint32_t src : lanes) {
          progs.push_back(
              {.alpha = s.alpha, .seed = src, .tol = s.tol});
        }
        // Same fp-reassociation headroom the plain oracle grants replica
        // views: retained deltas amplify by 1/(1-alpha) through the linear
        // fixpoint.
        f = run_batch_program(s, opts, g, progs,
                              100.0 * s.tol / (1.0 - s.alpha));
        break;
      }
      default:
        return {false, "batch scenario: unsupported program"};
    }
    if (f) return {false, *f};
    return {};
  } catch (const std::exception& e) {
    return {false, std::string("exception: ") + e.what()};
  }
}

Verdict check_pipeline_scenario(const Scenario& s, const OracleOptions& opts) {
  try {
    if (s.machines == 0 || s.machines > 64) {
      return {false, "scenario: machine count out of range"};
    }
    const plan::Pipeline pipe = plan::Pipeline::parse(s.pipeline);
    if (pipe.empty()) return {false, "scenario: empty pipeline"};
    for (const plan::StageSpec& st : pipe.stages()) {
      // The shrinker may delete vertices out from under a stage source;
      // treat that as vacuously passing so such shrink steps are rejected
      // (the shrinker only keeps steps that still fail).
      if (st.has_source && st.source >= s.num_vertices) return {};
    }
    const Graph g(s.num_vertices, s.edges);  // executor derives its views
    const partition::PartitionOptions popts{.kind = s.cut,
                                            .seed = s.partition_seed};
    plan::LowerOptions base;
    base.default_engine = engine::engine_kind_from_string(s.plan_engine);
    base.threads_per_machine = s.threads_per_machine;
    base.max_supersteps = opts.max_supersteps;
    base.staleness = s.staleness;
    base.interval.policy = s.interval_policy;
    base.comm_policy = s.comm_policy;
    base.sweep = s.sweep;
    if (s.split) {
      partition::EdgeSplitterOptions eso;
      eso.t_extra = 0.001;
      base.split = eso;
    }

    // Composed lowering: everything on, fresh private cache so the
    // redundancy accounting below sees only this lowering's artifacts.
    partition::ArtifactCache cache;
    sim::Tracer tracer;
    plan::Executor composed(g, s.machines, popts, &cache, 1);
    plan::LowerOptions copts = base;
    copts.tracer = &tracer;
    const plan::PipelineResult cres = composed.run(pipe, copts);
    if (!cres.converged) {
      return {false, "pipeline: composed lowering did not converge within " +
                         std::to_string(opts.max_supersteps) + " supersteps"};
    }

    // Zero redundant artifacts. Assignments are keyed by graph content, so
    // a symmetrized view of an already-symmetric graph shares its partition;
    // builds additionally key on the split plan, which only applies to lazy
    // stages (eager engines always run unsplit).
    std::set<std::uint64_t> want_parts, want_builds;
    const std::uint64_t plain_hash = g.content_hash();
    const std::uint64_t sym_hash = g.symmetrized().content_hash();
    for (const plan::StageSpec& st : pipe.stages()) {
      const engine::EngineKind k =
          st.engine.empty() ? base.default_engine
                            : engine::engine_kind_from_string(st.engine);
      const bool lazy = k == engine::EngineKind::kLazyBlock ||
                        k == engine::EngineKind::kLazyVertex;
      const std::uint64_t h =
          plan::needs_symmetrized(st.algo) ? sym_hash : plain_hash;
      want_parts.insert(h);
      want_builds.insert(2 * h + ((s.split && lazy) ? 1 : 0));
    }
    if (cres.partitions_computed != want_parts.size()) {
      return {false, "pipeline: composed lowering computed " +
                         std::to_string(cres.partitions_computed) +
                         " partitions for " +
                         std::to_string(want_parts.size()) +
                         " distinct views"};
    }
    if (cres.builds_computed != want_builds.size()) {
      return {false, "pipeline: composed lowering computed " +
                         std::to_string(cres.builds_computed) +
                         " builds for " + std::to_string(want_builds.size()) +
                         " distinct view/split configurations"};
    }
    if (opts.check_trace) {
      std::uint64_t lower_spans = 0, carry_spans = 0, carried_stages = 0;
      for (const sim::SetupSpan& sp : tracer.setup_spans()) {
        if (sp.kind == sim::SpanKind::kPlanLower) ++lower_spans;
        if (sp.kind == sim::SpanKind::kPlanCarry) ++carry_spans;
      }
      for (const plan::StageReport& r : cres.stages) {
        carried_stages += r.carried_frontier > 0 ? 1 : 0;
      }
      if (lower_spans != cres.engine_runs) {
        return {false, "pipeline: trace has " + std::to_string(lower_spans) +
                           " plan_lower spans for " +
                           std::to_string(cres.engine_runs) + " engine runs"};
      }
      if (carry_spans != carried_stages) {
        return {false, "pipeline: trace has " + std::to_string(carry_spans) +
                           " plan_carry spans for " +
                           std::to_string(carried_stages) +
                           " carried frontiers"};
      }
    }

    // Sequential reference: every reuse mechanism off, cold builds.
    plan::Executor seq(g, s.machines, popts, nullptr, 1);
    const plan::PipelineResult sres =
        seq.run(pipe, plan::sequential_baseline(base));
    if (!sres.converged) {
      return {false,
              "pipeline: sequential reference lowering did not converge"};
    }
    for (std::size_t i = 0; i < pipe.size(); ++i) {
      if (cres.outcomes[i].digest != sres.outcomes[i].digest) {
        return {false, "pipeline stage " + std::to_string(i) + " (" +
                           pipe.stages()[i].to_string() +
                           "): composed result not bit-identical to the "
                           "sequential reference"};
      }
    }

    // Ground the chain: stage 0 ran at full scope, so it must match the
    // single-machine reference fixed point.
    if (auto f = first_stage_vs_reference(pipe.stages()[0], g, cres)) {
      return {false, "pipeline: " + *f};
    }

    if (opts.check_determinism) {
      // Fresh executor + fresh cache, at executor threads 2 (machines of
      // the lowering cluster run concurrently): the whole lowering must
      // reproduce bit-for-bit, counters included.
      partition::ArtifactCache cache2;
      plan::Executor again(g, s.machines, popts, &cache2, 2);
      const plan::PipelineResult ares = again.run(pipe, base);
      for (std::size_t i = 0; i < pipe.size(); ++i) {
        if (ares.outcomes[i].digest != cres.outcomes[i].digest ||
            ares.outcomes[i].supersteps != cres.outcomes[i].supersteps) {
          return {false, "pipeline stage " + std::to_string(i) +
                             ": lowering at executor threads 2 not "
                             "bit-identical"};
        }
      }
      if (auto f = compare_metrics(cres.metrics, ares.metrics)) {
        return {false, "pipeline: executor threads 2 changed " + *f};
      }
      // Same executor again: the Merkle stage memo must replay everything.
      const plan::PipelineResult mres = composed.run(pipe, base);
      if (mres.engine_runs != 0) {
        return {false, "pipeline: memoized re-lowering ran " +
                           std::to_string(mres.engine_runs) +
                           " engines (expected 0)"};
      }
      for (std::size_t i = 0; i < pipe.size(); ++i) {
        if (!mres.stages[i].reused ||
            mres.outcomes[i].digest != cres.outcomes[i].digest) {
          return {false, "pipeline stage " + std::to_string(i) +
                             ": memo replay did not reproduce the outcome"};
        }
      }
    }
    return {};
  } catch (const std::exception& e) {
    return {false, std::string("exception: ") + e.what()};
  }
}

Verdict check_scenario(const Scenario& s, const OracleOptions& opts) {
  if (s.has_pipeline()) return check_pipeline_scenario(s, opts);
  if (s.has_batch()) return check_batch_scenario(s, opts);
  try {
    if (s.needs_source() &&
        (s.num_vertices == 0 || s.source >= s.num_vertices)) {
      return {false, "scenario: source out of range"};
    }
    if (s.machines == 0 || s.machines > 64) {
      return {false, "scenario: machine count out of range"};
    }
    const Graph g = s.build_graph();
    std::optional<std::string> f;
    switch (s.program) {
      case ProgramKind::kSssp: {
        algos::SSSP prog;
        prog.source = s.source;
        const auto ref = reference::sssp(g, s.source);
        const auto eq = [](const algos::SSSP::VData& a,
                           const algos::SSSP::VData& b) {
          return a.dist == b.dist;
        };
        f = run_program(s, opts, g, prog,
                        exact_against(ref, [](const auto& d) { return d.dist; },
                                      "dist"),
                        eq, eq);
        break;
      }
      case ProgramKind::kBfs: {
        algos::BFS prog;
        prog.source = s.source;
        const auto ref = reference::bfs(g, s.source);
        const auto eq = [](const algos::BFS::VData& a,
                           const algos::BFS::VData& b) {
          return a.depth == b.depth;
        };
        f = run_program(
            s, opts, g, prog,
            exact_against(ref, [](const auto& d) { return d.depth; }, "depth"),
            eq, eq);
        break;
      }
      case ProgramKind::kConnectedComponents: {
        algos::ConnectedComponents prog;
        const auto ref = reference::connected_components(g);
        const auto eq = [](const algos::ConnectedComponents::VData& a,
                           const algos::ConnectedComponents::VData& b) {
          return a.label == b.label;
        };
        f = run_program(
            s, opts, g, prog,
            exact_against(ref, [](const auto& d) { return d.label; }, "label"),
            eq, eq);
        break;
      }
      case ProgramKind::kKcore: {
        algos::KCore prog;
        prog.k = s.kcore_k;
        const auto ref = reference::kcore(g, s.kcore_k);
        const auto eq = [](const algos::KCore::VData& a,
                           const algos::KCore::VData& b) {
          return a.deleted == b.deleted && a.core == b.core;
        };
        f = run_program(s, opts, g, prog,
                        exact_against(
                            ref, [](const auto& d) { return !d.deleted; },
                            "k-core membership"),
                        eq, eq);
        break;
      }
      case ProgramKind::kPagerank: {
        algos::PageRankDelta prog;
        prog.tol = s.tol;
        const auto ref = reference::pagerank(g, 1e-12, 20'000);
        // Each vertex may retain up to tol of unscattered delta; the 300x
        // headroom covers its propagation through the 0.85-contraction
        // (empirically calibrated, same bound the unit suites use).
        const double bound = 300.0 * s.tol;
        // Replicas apply the same delta multiset, possibly grouped
        // differently: ranks agree up to association order, pending deltas
        // up to 2x the scatter threshold (each replica's retained remainder
        // lies in (-tol, tol), but partial-sum releases differ). On
        // parallel-edges graphs each target replica consumes the releases of
        // *its* machine's source replica, whose running totals differ by up
        // to the retained remainder — rank then only agrees up to the
        // threshold error amplified through the 0.85-contraction.
        const double tol = s.tol;
        const double rank_slack = s.split ? 100.0 * tol : 0.0;
        const auto replica_eq = [tol, rank_slack](
                                    const algos::PageRankDelta::VData& a,
                                    const algos::PageRankDelta::VData& b) {
          return fp_close(a.rank, b.rank, rank_slack) &&
                 fp_close(a.pending_delta, b.pending_delta, 2.0 * tol);
        };
        const auto bit_eq = [](const algos::PageRankDelta::VData& a,
                               const algos::PageRankDelta::VData& b) {
          return a.rank == b.rank && a.pending_delta == b.pending_delta;
        };
        f = run_program(
            s, opts, g, prog,
            close_against(ref, [](const auto& d) { return d.rank; }, "rank",
                          bound),
            replica_eq, bit_eq);
        break;
      }
      case ProgramKind::kWidestPath: {
        algos::WidestPath prog;
        prog.source = s.source;
        const auto ref = reference::widest_path(g, s.source);
        const auto eq = [](const algos::WidestPath::VData& a,
                           const algos::WidestPath::VData& b) {
          return a.capacity == b.capacity;
        };
        f = run_program(s, opts, g, prog,
                        exact_against(
                            ref, [](const auto& d) { return d.capacity; },
                            "capacity"),
                        eq, eq);
        break;
      }
      case ProgramKind::kDiffusion: {
        algos::LinearDiffusion prog;
        prog.alpha = s.alpha;
        prog.seed = s.source;
        prog.tol = s.tol;
        std::vector<double> bias(g.num_vertices(), prog.base_bias);
        if (!bias.empty()) bias[s.source] += prog.seed_bias;
        const auto ref =
            reference::linear_diffusion(g, bias, s.alpha, 1e-13, 50'000);
        // Retained deltas amplify by at most 1/(1-alpha) through the linear
        // fixpoint, hence the alpha-dependent headroom.
        const double bound = 300.0 * s.tol / (1.0 - s.alpha);
        const double tol = s.tol;
        const double value_slack =
            s.split ? 100.0 * tol / (1.0 - s.alpha) : 0.0;
        const auto replica_eq = [tol, value_slack](
                                    const algos::LinearDiffusion::VData& a,
                                    const algos::LinearDiffusion::VData& b) {
          return fp_close(a.value, b.value, value_slack) &&
                 fp_close(a.pending_delta, b.pending_delta, 2.0 * tol);
        };
        const auto bit_eq = [](const algos::LinearDiffusion::VData& a,
                               const algos::LinearDiffusion::VData& b) {
          return a.value == b.value && a.pending_delta == b.pending_delta;
        };
        f = run_program(
            s, opts, g, prog,
            close_against(ref, [](const auto& d) { return d.value; }, "value",
                          bound),
            replica_eq, bit_eq);
        break;
      }
    }
    if (f) return {false, *f};
    return {};
  } catch (const std::exception& e) {
    return {false, std::string("exception: ") + e.what()};
  }
}

Verdict check_failure_scenario(const Scenario& s, const OracleOptions& opts) {
  if (s.has_pipeline()) {
    return {false, "failure scenario: pipelines do not take failure plans"};
  }
  if (s.machines == 0 || s.machines > 64) {
    return {false, "scenario: machine count out of range"};
  }
  Scenario f = s;
  if (f.kill.empty()) {
    // Deterministic derived plan: same scenario seed, same kill, always.
    f.kill = sim::FailurePlan::draw(mix64(s.seed ^ 0xfa110f5ULL), s.machines)
                 .to_string();
  }
  return check_scenario(f, opts);
}

}  // namespace lazygraph::testing
