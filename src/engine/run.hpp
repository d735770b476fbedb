// The engine front door: engine::run() is the only place that constructs an
// engine. It takes one RunConfig (engine/run_config.hpp) carrying the engine
// kind, every engine's knobs and an optional Tracer, plus an optional
// coherency inspector.
#pragma once

#include <type_traits>
#include <utility>
#include <vector>

#include "engine/async_engine.hpp"
#include "engine/lazy_block_engine.hpp"
#include "engine/lazy_vertex_engine.hpp"
#include "engine/sync_engine.hpp"

namespace lazygraph::engine {

/// Runs `prog` over `dg` on `cluster` with the engine cfg.kind selects.
/// All engines return the same RunResult field set; when cfg.tracer is set
/// it is attached for the duration of the run (restoring any tracer the
/// cluster already had) and handed back via RunResult::trace.
///
/// `inspect`, when set, observes the replica states at every point where the
/// engine's protocol guarantees all replicas of a vertex hold an identical
/// global view:
///   - sync: the end of every superstep (the eager broadcast has replicated
///     every applied vertex);
///   - async: the end of every Gauss-Seidel round (each update is pushed to
///     all mirrors within the update itself);
///   - lazy-block: after every coherency point's apply+scatter sweep and at
///     the terminal quiescent exchange — exactly for semilattice Sums, up to
///     floating-point association for additive ones (paper §3.2);
///   - lazy-vertex: once, at termination (per-vertex coherency events leave
///     deliveries pending until every queue drains).
/// Every engine's last call sees the terminal state, so a converged run's
/// final replica states are whatever the last call received.
template <VertexProgram P>
RunResult<P> run(const RunConfig& cfg, const partition::DistributedGraph& dg,
                 const P& prog, sim::Cluster& cluster,
                 std::type_identity_t<CoherencyInspector<P>> inspect = {}) {
  sim::Tracer* const previous = cluster.tracer();
  if (cfg.tracer) {
    cluster.set_tracer(cfg.tracer);
    cfg.tracer->set_run_info(to_string(cfg.kind));
  }

  // Lower the global-id injection into per-machine state. The frontier is
  // translated by scanning each machine's replicas in ascending lvid order
  // against a membership mask, so the per-machine lists reproduce the full
  // init scan's visit order restricted to the frontier (the bit-identity
  // requirement of for_each_init_vertex).
  InitInjection inj;
  inj.vdata = cfg.initial_state;
  if (cfg.initial_frontier) {
    inj.has_frontier = true;
    inj.frontier.resize(dg.num_machines());
    std::vector<std::uint8_t> member(dg.num_global_vertices(), 0);
    for (const vid_t g : *cfg.initial_frontier) member[g] = 1;
    for (machine_t m = 0; m < dg.num_machines(); ++m) {
      const partition::Part& part = dg.part(m);
      for (lvid_t v = 0; v < part.num_local(); ++v) {
        if (member[part.gids[v]]) inj.frontier[m].push_back(v);
      }
    }
  }
  const InitInjection* injp =
      (inj.has_frontier || inj.vdata) ? &inj : nullptr;

  RunResult<P> result;
  switch (cfg.kind) {
    case EngineKind::kSync:
      result = SyncEngine<P>(dg, prog, cluster, cfg, injp, std::move(inspect))
                   .run();
      break;
    case EngineKind::kAsync:
      result = AsyncEngine<P>(dg, prog, cluster, cfg, injp, std::move(inspect))
                   .run();
      break;
    case EngineKind::kLazyBlock:
      result = LazyBlockAsyncEngine<P>(dg, prog, cluster, cfg, injp,
                                       std::move(inspect))
                   .run();
      break;
    case EngineKind::kLazyVertex:
      result = LazyVertexAsyncEngine<P>(dg, prog, cluster, cfg, injp,
                                        std::move(inspect))
                   .run();
      break;
  }
  if (cfg.tracer) cluster.set_tracer(previous);
  return result;
}

}  // namespace lazygraph::engine
