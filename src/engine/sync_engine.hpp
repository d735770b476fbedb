// PowerGraph's synchronous engine with eager replica coherency — the paper's
// main baseline (Issue I / Fig. 2a).
//
// Every superstep performs the full eager GAS protocol:
//   1. Gather:  each active mirror ships its partial accumulator to the
//               master                     (communication #1, global sync #1)
//   2. Apply:   the master applies the combined accumulator and immediately
//               replicates the new vertex data (plus the scatter payload) to
//               all mirrors                (communication #2, global sync #2)
//   3. Scatter: every replica pushes messages along its local out-edges
//                                          (global sync #3)
// i.e. two communications and three global synchronizations per superstep,
// exactly the redundancy Section 2.3 of the paper quantifies.
//
// The superstep is frontier-driven: pending masters are derived from the
// per-machine frontiers (sorted ascending, so every pass visits the same
// vertices in the same order as the historical whole-array scans), and the
// scatter pass runs chunk-parallel within each machine when the
// threads_per_machine budget allows — bit-identical for any budget.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/local_sweep.hpp"
#include "engine/run_config.hpp"
#include "engine/state.hpp"
#include "recovery/recovery.hpp"
#include "sim/cluster.hpp"

namespace lazygraph::engine {

/// Reads max_supersteps, threads_per_machine (an execution knob here:
/// results are bit-identical across budgets) and sweep (the scatter
/// direction, likewise bit-identical) from the RunConfig.
template <VertexProgram P>
class SyncEngine {
 public:
  SyncEngine(const partition::DistributedGraph& dg, P prog,
             sim::Cluster& cluster, const RunConfig& cfg,
             const InitInjection* init, CoherencyInspector<P> inspect)
      : dg_(dg),
        prog_(std::move(prog)),
        cluster_(cluster),
        cfg_(cfg),
        init_(init),
        inspector_(std::move(inspect)) {
    require(cluster.num_machines() == dg.num_machines(),
            "SyncEngine: cluster/graph machine count mismatch");
    require(dg.parallel_edge_copies() == 0,
            "SyncEngine: eager engines run on unsplit graphs "
            "(parallel-edges are a LazyGraph mechanism)");
  }

  RunResult<P> run() {
    const machine_t p = dg_.num_machines();
    states_ = make_states(dg_, prog_, init_);
    cluster_.metrics().sweep_scanned +=
        init_eager_messages(prog_, dg_, states_, init_);
    const SweepExec exec{&cluster_, cfg_.threads_per_machine};
    recovery::Recoverer<P> recoverer(cluster_, dg_);

    RunResult<P> result;
    std::vector<std::uint64_t> gather_msgs(p), bcast_msgs(p), bcast_payloads(p),
        work(p), applies(p);
    // Gather-phase edge work lands on *other* machines (every replica of an
    // active vertex walks its local in-edges), so these are shared counters.
    std::vector<std::atomic<std::uint64_t>> gather_work(p);
    // Per machine: master lvids with any active replica this superstep
    // (sorted ascending), and payload-carrying replicas to scatter.
    std::vector<std::vector<lvid_t>> pending(p), scatter_list(p);
    // Per-machine scatter-sweep outcome, folded into metrics/trace serially
    // after the join (cluster metrics are not thread-safe).
    std::vector<SweepTally> scatter_tally(p);
    // Wire-codec size accounting, one stream per machine pair [dest*p+src]:
    // gather ships mirror accumulators to masters, broadcast ships new
    // master vdata (with the scatter payload piggybacked behind a presence
    // bitmap) to mirrors. pending[m] is ascending and lvids are dense in
    // gid order, so each stream sees strictly ascending gids.
    std::vector<wire::DeltaSizeCoder> gather_coders(std::size_t{p} * p),
        bcast_coders(std::size_t{p} * p);

    for (std::uint64_t step = 0; step < cfg_.max_supersteps; ++step) {
      ++cluster_.metrics().supersteps;
      ++result.supersteps;

      // --- Derive the pending-master worklists from the frontiers: every
      // flagged replica routes its master's coordinates. Serial (frontier
      // lists cross machines), then sorted per machine in parallel. ---
      for (auto& l : pending) l.clear();
      for (machine_t r = 0; r < p; ++r) {
        const partition::Part& rp = dg_.part(r);
        PartState<P>& rs = states_[r];
        cluster_.metrics().sweep_scanned +=
            rs.frontier.for_each_flagged(rs.has_msg, [&](lvid_t u) {
              pending[rp.master[u]].push_back(rp.master_lvid[u]);
            });
        // All flags below are consumed by gather+apply before scatter
        // re-arms the frontier, so dropping the worklist now is safe.
        rs.frontier.clear();
      }
      cluster_.parallel_machines([&](machine_t m) {
        auto& l = pending[m];
        std::sort(l.begin(), l.end());
        l.erase(std::unique(l.begin(), l.end()), l.end());
      });

      // --- Gather: PowerGraph recomputes the accumulator of every active
      // vertex over its full in-neighbourhood — each replica walks its local
      // in-edges and every mirror ships one accumulator to the master,
      // whether or not anything arrived locally. ---
      std::fill(gather_msgs.begin(), gather_msgs.end(), 0);
      for (auto& c : gather_coders) c.reset();
      for (auto& w : gather_work) w.store(0, std::memory_order_relaxed);
      cluster_.parallel_machines([&](machine_t m) {
        const partition::Part& part = dg_.part(m);
        PartState<P>& s = states_[m];
        for (const lvid_t v : pending[m]) {
          gather_work[m].fetch_add(part.local_in_degree[v],
                                   std::memory_order_relaxed);
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            PartState<P>& rs = states_[r];
            gather_work[r].fetch_add(dg_.part(r).local_in_degree[rl],
                                     std::memory_order_relaxed);
            ++gather_msgs[m];  // one accumulator per mirror, always
            gather_coders[std::size_t{m} * p + r].add(
                part.gids[v], sizeof(typename P::Msg));
            if (rs.has_msg[rl]) {
              // Raw deposit: the master flag raised here is consumed by the
              // apply pass below, before the next frontier derivation.
              deposit_msg_raw(prog_, s, v, rs.msg[rl]);
              rs.has_msg[rl] = 0;
            }
          }
        }
      });
      std::uint64_t total_gather = 0;
      for (machine_t m = 0; m < p; ++m) {
        total_gather += gather_msgs[m];
        work[m] = gather_work[m].load(std::memory_order_relaxed);
      }
      std::uint64_t gather_wire = 0;
      for (const auto& c : gather_coders) gather_wire += c.total_bytes();
      cluster_.charge_compute(sim::SpanKind::kEagerGather, work);
      cluster_.charge_exchange(sim::SpanKind::kEagerGather,
                               sim::CommMode::kAllToAll,
                               total_gather * wire_bytes<typename P::Msg>(),
                               gather_wire, total_gather);
      cluster_.charge_barrier();  // sync #1

      // --- Apply at masters + eager broadcast of new data to mirrors. ---
      std::fill(bcast_msgs.begin(), bcast_msgs.end(), 0);
      std::fill(bcast_payloads.begin(), bcast_payloads.end(), 0);
      std::fill(applies.begin(), applies.end(), 0);
      for (auto& c : bcast_coders) c.reset();
      cluster_.parallel_machines([&](machine_t m) {
        const partition::Part& part = dg_.part(m);
        PartState<P>& s = states_[m];
        for (const lvid_t v : pending[m]) {
          if (!s.has_msg[v]) continue;
          const typename P::Msg acc = s.msg[v];
          s.has_msg[v] = 0;
          ++applies[m];
          const VertexInfo info = vertex_info<P>(part, v);
          s.applied[v] = 1;
          const auto payload = prog_.apply(s.vdata[v], info, acc);
          if (payload) {
            s.payload[v] = *payload;
            s.has_payload[v] = 1;
          }
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            PartState<P>& rs = states_[r];
            rs.vdata[rl] = s.vdata[v];
            ++bcast_msgs[m];
            bcast_coders[std::size_t{m} * p + r].add(
                part.gids[v],
                sizeof(typename P::VData) +
                    (payload ? sizeof(typename P::Scatter) : 0));
            if (payload) {
              rs.payload[rl] = *payload;
              rs.has_payload[rl] = 1;
              ++bcast_payloads[m];
            }
          }
        }
      });
      std::uint64_t total_bcast = 0, total_payloads = 0, total_applies = 0;
      for (machine_t m = 0; m < p; ++m) {
        total_bcast += bcast_msgs[m];
        total_payloads += bcast_payloads[m];
        total_applies += applies[m];
      }
      cluster_.metrics().applies += total_applies;
      std::uint64_t bcast_wire = 0;
      for (const auto& c : bcast_coders) {
        bcast_wire += c.total_bytes_with_flag_bitmap();
      }
      cluster_.charge_exchange(
          sim::SpanKind::kEagerBroadcast, sim::CommMode::kAllToAll,
          total_bcast * wire_bytes<typename P::VData>() +
              total_payloads * sizeof(typename P::Scatter),
          bcast_wire, total_bcast);
      cluster_.charge_barrier();  // sync #2

      // --- Scatter on every replica along local out-edges, worklist-driven:
      // a replica carries a payload iff its master was pending and applied
      // one, so the lists below cover every raised has_payload flag. ---
      for (auto& l : scatter_list) l.clear();
      for (machine_t m = 0; m < p; ++m) {
        const partition::Part& part = dg_.part(m);
        for (const lvid_t v : pending[m]) {
          if (states_[m].has_payload[v]) scatter_list[m].push_back(v);
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            if (states_[r].has_payload[rl]) scatter_list[r].push_back(rl);
          }
        }
      }
      std::fill(work.begin(), work.end(), 0);
      cluster_.parallel_machines([&](machine_t m) {
        const partition::Part& part = dg_.part(m);
        PartState<P>& s = states_[m];
        auto& list = scatter_list[m];
        std::sort(list.begin(), list.end());  // ascending = old scan order
        // Direction: the eager broadcast already parked every payload in the
        // slab, so the pull fold reads straight from the payload slots.
        // Either way the folded bits are identical (DESIGN §5k).
        SweepCounters c;
        if (sweep_pulls(part, list, cfg_.sweep)) {
          c = pull_deposit_pass<false>(prog_, part, s, exec);
          for (const lvid_t v : list) s.has_payload[v] = 0;
        } else {
          c = chunked_deposit_pass(
              prog_, part, s, list.size(), exec,
              [&](std::size_t i) { return list[i]; },
              [&](std::size_t i, ChunkEmitter<typename P::Msg>& em,
                  SweepCounters& cc) {
                const lvid_t v = list[i];
                s.has_payload[v] = 0;
                const VertexInfo info = vertex_info<P>(part, v);
                for (std::uint64_t e = part.offsets[v];
                     e < part.offsets[v + 1]; ++e) {
                  em.msg(part.targets[e],
                         prog_.scatter(s.payload[v], info, part.weights[e]));
                  ++cc.work;
                }
              });
        }
        // A machine with nothing to scatter ran no sweep: no vote.
        scatter_tally[m] = {};
        scatter_tally[m].add(c, /*votes=*/!list.empty());
        work[m] = applies[m] + c.work;
      });
      int dir_agg = -1;
      for (const SweepTally& t : scatter_tally) {
        fold_sweep(cluster_.metrics(), t, dir_agg);
      }
      cluster_.charge_compute(sim::SpanKind::kEagerScatter, work);
      cluster_.charge_barrier();  // sync #3

      // --- Global termination test: any message pending anywhere? ---
      std::uint64_t active = 0;
      for (machine_t m = 0; m < p; ++m) active += states_[m].count_msgs();
      if (sim::Tracer* t = cluster_.tracer()) {
        t->record_superstep({.superstep = result.supersteps,
                            .active_vertices = active,
                            .sweep_dir = dir_agg});
      }
      if (inspector_) inspector_(result.supersteps, states_);
      // Coherency point: the eager broadcast just made all replicas
      // identical, so this is a consistent cut for fault injection.
      recoverer.on_coherency_point(result.supersteps, states_);
      if (active == 0) {
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
