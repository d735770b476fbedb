// PowerGraph's asynchronous engine with eager replica coherency — the
// paper's second baseline (Issue III).
//
// No global barriers: vertices are processed in rounds of Gauss-Seidel
// sweeps (machine 0..P-1, lvid order) with *immediate* visibility of
// updates — exactly the visibility-timing semantics that let Async converge
// in fewer updates than Sync. Every vertex update pays the eager coherency
// protocol: partial accumulators are pulled from mirrors and the new vertex
// data is pushed back to all mirrors, as fine-grained messages charged with
// per-message software overhead (this is what makes Async degrade as the
// replication factor grows with the machine count, Fig. 12e).
//
// The sweep is executed serially, which makes the run bit-deterministic; the
// time model charges compute as if the machines ran concurrently. Each round
// walks one active-master mark set per machine in ascending lvid order
// (find_next, which re-reads the words): round start marks the master of
// every flagged replica, an in-round activation *ahead* of the (machine,
// master lvid) cursor sets its bit and joins the walk, and one at or behind
// it stays in the frontier for the next round — the visit order, and every
// result bit, of the historical whole-array scan.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "engine/local_sweep.hpp"
#include "engine/run_config.hpp"
#include "engine/state.hpp"
#include "recovery/recovery.hpp"
#include "sim/cluster.hpp"

namespace lazygraph::engine {

/// Reads only max_supersteps (the round bound) from the RunConfig.
template <VertexProgram P>
class AsyncEngine {
 public:
  AsyncEngine(const partition::DistributedGraph& dg, P prog,
              sim::Cluster& cluster, const RunConfig& cfg,
              const InitInjection* init, CoherencyInspector<P> inspect)
      : dg_(dg),
        prog_(std::move(prog)),
        cluster_(cluster),
        cfg_(cfg),
        init_(init),
        inspector_(std::move(inspect)) {
    require(cluster.num_machines() == dg.num_machines(),
            "AsyncEngine: cluster/graph machine count mismatch");
    require(dg.parallel_edge_copies() == 0,
            "AsyncEngine: eager engines run on unsplit graphs");
  }

  RunResult<P> run() {
    const machine_t p = dg_.num_machines();
    states_ = make_states(dg_, prog_, cluster_, init_);
    cluster_.metrics().sweep_scanned +=
        init_eager_messages(prog_, dg_, states_, cluster_, init_);
    recovery::Recoverer<P> recoverer(cluster_, dg_);

    RunResult<P> result;
    std::vector<std::uint64_t> work(p);
    // Per machine: the masters still to visit this round.
    std::vector<OwnedBits> active;
    active.reserve(p);
    for (machine_t m = 0; m < p; ++m) {
      active.emplace_back(dg_.part(m).num_local());
    }

    for (std::uint64_t round = 0; round < cfg_.max_supersteps; ++round) {
      ++cluster_.metrics().supersteps;
      ++result.supersteps;
      bool any = false;
      // Fine-grained traffic truly is per-message (no batch to compress), so
      // each send is charged as a one-record wire frame alongside the
      // uncompressed-fallback raw size.
      std::uint64_t msgs = 0, bytes = 0, wire = 0, applies = 0;
      std::fill(work.begin(), work.end(), 0);

      // Round start: every flagged replica marks its master. Behind-the-
      // cursor activations of the *previous* round left their flags up, so
      // they surface here.
      for (machine_t r = 0; r < p; ++r) {
        const partition::Part& rp = dg_.part(r);
        PartState<P>& rs = states_[r];
        cluster_.metrics().sweep_scanned +=
            rs.frontier.for_each_flagged(rs.has_msg, [&](lvid_t u) {
              active[rp.master[u]].set(rp.master_lvid[u]);
            });
        rs.frontier.clear();
      }

      for (machine_t m = 0; m < p; ++m) {
        const partition::Part& part = dg_.part(m);
        PartState<P>& s = states_[m];
        OwnedBits& act = active[m];
        for (std::size_t i = act.find_next(0); i < act.size();
             i = act.find_next(i + 1)) {
          act.reset(i);
          const lvid_t v = static_cast<lvid_t>(i);

          // Eager gather: is the vertex active anywhere? (Stale marks —
          // flags consumed since marking — drop out here.)
          bool have = s.has_msg[v];
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            have = have || states_[r].has_msg[rl];
          }
          if (!have) continue;
          any = true;
          ++applies;

          // PowerGraph recomputes the accumulator over the vertex's full
          // in-neighbourhood: every replica walks its local in-edges and
          // ships one accumulator, whether or not it saw local messages.
          typename P::Msg acc{};
          bool first = true;
          if (s.has_msg[v]) {
            acc = s.msg[v];
            s.has_msg.reset(v);
            first = false;
          }
          work[m] += part.local_in_degree[v] + 1;
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            PartState<P>& rs = states_[r];
            work[r] += dg_.part(r).local_in_degree[rl];
            ++msgs;
            bytes += wire_bytes<typename P::Msg>();
            wire += wire::single_record_bytes(part.gids[v],
                                              sizeof(typename P::Msg));
            if (!rs.has_msg[rl]) continue;
            acc = first ? rs.msg[rl] : prog_.sum(acc, rs.msg[rl]);
            first = false;
            rs.has_msg.reset(rl);
          }

          const VertexInfo info = vertex_info<P>(part, v);
          s.applied.set(v);
          const auto payload = prog_.apply(s.vdata[v], info, acc);

          // Eager coherency: immediately replicate the new vertex data.
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            states_[r].vdata[rl] = s.vdata[v];
            ++msgs;
            bytes += wire_bytes<typename P::VData>();
            wire += wire::single_record_bytes(part.gids[v],
                                              sizeof(typename P::VData));
          }
          if (!payload) continue;

          // Scatter on every replica along its local out-edges, with
          // immediate visibility to later vertices in this round: a fresh
          // activation strictly ahead of the (m, v) cursor marks its master;
          // at-or-behind ones stay in the frontier for the next round's
          // marking — exactly what a scan cursor would see.
          auto scatter_at = [&](machine_t rm, lvid_t rv) {
            const partition::Part& rpart = dg_.part(rm);
            PartState<P>& rs = states_[rm];
            for (std::uint64_t e = rpart.offsets[rv];
                 e < rpart.offsets[rv + 1]; ++e) {
              const lvid_t u = rpart.targets[e];
              if (deposit_msg(prog_, rs, u,
                              prog_.scatter(*payload, info,
                                            rpart.weights[e]))) {
                const machine_t mm = rpart.master[u];
                const lvid_t ml = rpart.master_lvid[u];
                if (mm > m || (mm == m && ml > v)) active[mm].set(ml);
              }
              ++work[rm];
            }
          };
          scatter_at(m, v);
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            scatter_at(r, rl);
          }
        }
        assert(!act.any() && "AsyncEngine: round left a master marked");
      }

      cluster_.metrics().applies += applies;
      cluster_.charge_compute(sim::SpanKind::kAsyncRound, work);
      cluster_.charge_fine_grained(sim::SpanKind::kFineGrained, bytes, wire,
                                   msgs);
      if (sim::Tracer* t = cluster_.tracer()) {
        t->record_superstep({.superstep = result.supersteps,
                            .active_vertices = applies});
      }
      if (inspector_) inspector_(result.supersteps, states_);
      // Coherency point: every update replicated eagerly within the round,
      // so the round boundary is a consistent cut for fault injection.
      recoverer.on_coherency_point(result.supersteps, states_);
      if (!any) {
        result.converged = true;
        break;
      }
    }

    finalize_result(result, cluster_, dg_, states_);
    return result;
  }

 private:
  const partition::DistributedGraph& dg_;
  P prog_;
  sim::Cluster& cluster_;
  RunConfig cfg_;
  const InitInjection* init_;
  std::vector<PartState<P>> states_;
  CoherencyInspector<P> inspector_;
};

}  // namespace lazygraph::engine
