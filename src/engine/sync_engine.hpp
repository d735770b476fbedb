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
// Owner computes: each of the superstep's four parallel_machines phases
// writes only the machine it runs for and reads no other machine's flags;
// data crosses machines by value through per-destination outboxes that the
// sender fills and the receiver reads after the join (pack -> join ->
// unpack):
//   route   replica r  -> outbox (r, master): (master lvid, accumulator) of
//                         every flagged mirror, whose has_msg it retires as
//                         it packs; a flagged master only marks itself
//   gather  master m   marks the routed masters, folds the mirror
//                         accumulators into its own slots (ascending r, after
//                         the master's own slot = remote_replicas order) and
//                         counts the in-edge work it causes on every machine
//                         in its own row
//   apply   master m   drains its marks ascending -> outbox (m, mirror
//                         machine): (mirror, master) lvids
//   update  mirror r   copies vdata/payload from its masters (read-only in
//                         this phase), then scatters every raised has_payload
//                         flag in one ascending bit walk
// Every fold runs in the order the serial engine used (marked masters
// ascending x remote_replicas, payload flags ascending), so data, supersteps
// and every counter are bit-identical at any cluster thread count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/local_sweep.hpp"
#include "engine/run_config.hpp"
#include "engine/state.hpp"
#include "recovery/recovery.hpp"
#include "sim/cluster.hpp"

namespace lazygraph::engine {

/// Reads max_supersteps from the RunConfig.
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
    using Msg = typename P::Msg;
    const machine_t p = dg_.num_machines();
    states_ = make_states(dg_, prog_, cluster_, init_);
    cluster_.metrics().sweep_scanned +=
        init_eager_messages(prog_, dg_, states_, cluster_, init_);
    recovery::Recoverer<P> recoverer(cluster_, dg_);

    std::vector<MachineStep> steps = make_steps();
    std::vector<std::uint64_t> work(p);

    RunResult<P> result;
    for (std::uint64_t step = 0; step < cfg_.max_supersteps; ++step) {
      ++cluster_.metrics().supersteps;
      ++result.supersteps;

      // --- Route: every flagged mirror ships its accumulator by value to
      // its master's machine and retires its own flag; a flagged master only
      // marks itself pending. All flags are consumed by gather + apply
      // before the scatter re-arms the frontier, so dropping the worklist
      // now is safe. ---
      cluster_.parallel_machines([&](machine_t r) {
        const partition::Part& rp = dg_.part(r);
        PartState<P>& rs = states_[r];
        MachineStep& ms = steps[r];
        for (auto& l : ms.route) l.clear();
        ms.scanned = rs.frontier.for_each_flagged(rs.has_msg, [&](lvid_t u) {
          const machine_t m = rp.master[u];
          if (m == r) {
            ms.marks.set(u);
            return;
          }
          ms.route[m].push_back({rp.master_lvid[u], rs.msg[u]});
          rs.has_msg.reset(u);
        });
        rs.frontier.clear();
      });
      for (const MachineStep& ms : steps) {
        cluster_.metrics().sweep_scanned += ms.scanned;
      }

      // --- Gather: PowerGraph recomputes the accumulator of every active
      // vertex over its full in-neighbourhood — each replica walks its local
      // in-edges and every mirror ships one accumulator to the master,
      // whether or not anything arrived locally. The routed accumulators
      // are folded as their masters are marked; the wire accounting charges
      // one per mirror. ---
      cluster_.parallel_machines([&](machine_t m) {
        const partition::Part& part = dg_.part(m);
        PartState<P>& s = states_[m];
        MachineStep& ms = steps[m];
        ms.collect_pending(steps, m, prog_, s);
        std::fill(ms.work_row.begin(), ms.work_row.end(), 0);
        for (auto& c : ms.coders) c.reset();
        std::uint64_t msgs = 0;
        for (std::size_t v = ms.marks.find_next(0); v < ms.marks.size();
             v = ms.marks.find_next(v + 1)) {
          ms.work_row[m] += part.local_in_degree[v];
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            ms.work_row[r] += dg_.part(r).local_in_degree[rl];
            ++msgs;  // one accumulator per mirror, always
            ms.coders[r].add(part.gids[v], sizeof(Msg));
          }
        }
        ms.messages = msgs;
        ms.wire = 0;
        for (const auto& c : ms.coders) ms.wire += c.total_bytes();
      });
      std::uint64_t total_gather = 0, gather_wire = 0;
      std::fill(work.begin(), work.end(), 0);
      for (const MachineStep& ms : steps) {
        total_gather += ms.messages;
        gather_wire += ms.wire;
        for (machine_t r = 0; r < p; ++r) work[r] += ms.work_row[r];
      }
      cluster_.charge_compute(sim::SpanKind::kEagerGather, work);
      cluster_.charge_exchange(sim::SpanKind::kEagerGather,
                               sim::CommMode::kAllToAll,
                               total_gather * wire_bytes<Msg>(), gather_wire,
                               total_gather);
      cluster_.charge_barrier();  // sync #1

      // --- Apply at masters; the eager broadcast of the new data is packed
      // into per-mirror-machine outboxes (payload-carrying or not). ---
      cluster_.parallel_machines([&](machine_t m) {
        const partition::Part& part = dg_.part(m);
        PartState<P>& s = states_[m];
        MachineStep& ms = steps[m];
        for (auto& b : ms.bcast) b.clear();
        for (auto& b : ms.bcast_payload) b.clear();
        for (auto& c : ms.coders) c.reset();
        std::uint64_t msgs = 0, payloads = 0, applies = 0;
        ms.marks.drain([&](std::size_t i) {
          const lvid_t v = static_cast<lvid_t>(i);
          if (!s.has_msg[v]) return;
          const Msg acc = s.msg[v];
          s.has_msg.reset(v);
          ++applies;
          const VertexInfo info = vertex_info<P>(part, v);
          s.applied.set(v);
          const auto payload = prog_.apply(s.vdata[v], info, acc);
          if (payload) {
            s.payload[v] = *payload;
            s.has_payload.set(v);
          }
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            (payload ? ms.bcast_payload : ms.bcast)[r].push_back({rl, v});
            ++msgs;
            ms.coders[r].add(
                part.gids[v],
                sizeof(typename P::VData) +
                    (payload ? sizeof(typename P::Scatter) : 0));
            if (payload) ++payloads;
          }
        });
        assert(!ms.marks.any() && "SyncEngine: apply left a master marked");
        ms.applies = applies;
        ms.messages = msgs;
        ms.payloads = payloads;
        ms.wire = 0;
        for (const auto& c : ms.coders) {
          ms.wire += c.total_bytes_with_flag_bitmap();
        }
      });
      std::uint64_t total_bcast = 0, total_payloads = 0, bcast_wire = 0;
      for (const MachineStep& ms : steps) {
        total_bcast += ms.messages;
        total_payloads += ms.payloads;
        bcast_wire += ms.wire;
        cluster_.metrics().applies += ms.applies;
      }
      cluster_.charge_exchange(
          sim::SpanKind::kEagerBroadcast, sim::CommMode::kAllToAll,
          total_bcast * wire_bytes<typename P::VData>() +
              total_payloads * sizeof(typename P::Scatter),
          bcast_wire, total_bcast);
      cluster_.charge_barrier();  // sync #2

      // --- Update + scatter, per replica machine: unpack the broadcast into
      // the mirrors (masters' vdata/payload are read-only in this phase),
      // then push along local out-edges. The raised has_payload flags are
      // exactly the pending masters that applied a payload plus the mirrors
      // just unpacked with one. ---
      cluster_.parallel_machines([&](machine_t r) {
        const partition::Part& part = dg_.part(r);
        PartState<P>& s = states_[r];
        MachineStep& ms = steps[r];
        for (machine_t m = 0; m < p; ++m) {
          const PartState<P>& src = states_[m];
          for (const auto& [rl, v] : steps[m].bcast[r]) {
            s.vdata[rl] = src.vdata[v];
          }
          for (const auto& [rl, v] : steps[m].bcast_payload[r]) {
            s.vdata[rl] = src.vdata[v];
            s.payload[rl] = src.payload[v];
            s.has_payload.set(rl);
          }
        }
        // Serial push in ascending lvid order: deposits fold in emission
        // order (flag order, then out-edge order).
        ms.pushed = 0;
        const lvid_t n = part.num_local();
        for (std::size_t v = s.has_payload.find_next(0); v < n;
             v = s.has_payload.find_next(v + 1)) {
          s.has_payload.reset(v);
          const VertexInfo info = vertex_info<P>(part, static_cast<lvid_t>(v));
          for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1];
               ++e) {
            deposit_msg(prog_, s, part.targets[e],
                        prog_.scatter(s.payload[v], info, part.weights[e]));
            ++ms.pushed;
          }
        }
        ms.active = s.count_msgs();
      });
      std::uint64_t active = 0;
      for (machine_t m = 0; m < p; ++m) {
        cluster_.metrics().sweep_edges_pushed += steps[m].pushed;
        work[m] = steps[m].applies + steps[m].pushed;
        active += steps[m].active;
      }
      cluster_.charge_compute(sim::SpanKind::kEagerScatter, work);
      cluster_.charge_barrier();  // sync #3

      // --- Global termination test: any message pending anywhere? ---
      if (sim::Tracer* t = cluster_.tracer()) {
        t->record_superstep({.superstep = result.supersteps,
                            .active_vertices = active});
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
  /// One machine's superstep buffers. A phase body writes only the
  /// MachineStep of the machine it runs for; outboxes are indexed by the
  /// peer machine and read by that peer after the join. Cache-line aligned
  /// so the scalar tallies of neighbouring machines never share a line.
  struct alignas(64) MachineStep {
    /// One mirror's accumulator, shipped by value to its master's machine.
    struct Routed {
      lvid_t master;
      typename P::Msg msg;
    };
    // As replica machine: flagged mirrors' accumulators, per master machine
    // (the own-machine outbox stays empty: a flagged master only marks).
    std::vector<std::vector<Routed>> route;
    // As master: the pending masters, walked by gather and drained by apply.
    OwnedBits marks;
    // As master: gather edge work caused on each machine.
    std::vector<std::uint64_t> work_row;
    // As master: (mirror lvid, master lvid) per mirror machine, split by
    // whether the apply produced a scatter payload.
    std::vector<std::vector<std::pair<lvid_t, lvid_t>>> bcast, bcast_payload;
    // Wire-size accounting, one stream per destination machine: the marks
    // are walked ascending and lvids are dense in gid order, so each stream
    // sees strictly ascending gids.
    std::vector<wire::DeltaSizeCoder> coders;
    std::uint64_t scanned = 0, messages = 0, payloads = 0, wire = 0,
                  applies = 0, pushed = 0, active = 0;

    void init(const partition::Part& part, machine_t p) {
      route.assign(p, {});
      marks = OwnedBits(part.num_local());
      work_row.assign(p, 0);
      bcast.assign(p, {});
      bcast_payload.assign(p, {});
      coders.assign(p, {});
    }

    /// Marks every master routed to `self` and folds the routed mirror
    /// accumulators into its own message slots. The outboxes are walked in
    /// ascending sender order after the master's own slot, which is the
    /// order of remote_replicas[v], so every prog.sum sees the serial
    /// operands in the serial order.
    void collect_pending(const std::vector<MachineStep>& steps,
                         machine_t self, const P& prog, PartState<P>& s) {
      for (machine_t r = 0; r < steps.size(); ++r) {
        if (r == self) continue;
        for (const Routed& rec : steps[r].route[self]) {
          marks.set(rec.master);
          detail::fold_owned(prog, s, s.msg, s.has_msg, rec.master, rec.msg);
        }
      }
    }
  };

  /// Every machine's superstep buffers, each outbox reserved at its hard
  /// bound — for r != m, the replicas on r whose master lives on m bound
  /// both the route (r -> m) and the broadcast (m -> r) — so steady-state
  /// supersteps never grow one.
  std::vector<MachineStep> make_steps() const {
    const machine_t p = dg_.num_machines();
    std::vector<MachineStep> steps(p);
    for (machine_t m = 0; m < p; ++m) steps[m].init(dg_.part(m), p);
    std::vector<std::size_t> per_master(p);
    for (machine_t r = 0; r < p; ++r) {
      const partition::Part& rp = dg_.part(r);
      std::fill(per_master.begin(), per_master.end(), 0);
      for (lvid_t u = 0; u < rp.num_local(); ++u) ++per_master[rp.master[u]];
      for (machine_t m = 0; m < p; ++m) {
        if (m == r) continue;
        steps[r].route[m].reserve(per_master[m]);
        steps[m].bcast[r].reserve(per_master[m]);
        steps[m].bcast_payload[r].reserve(per_master[m]);
      }
    }
    return steps;
  }

  const partition::DistributedGraph& dg_;
  P prog_;
  sim::Cluster& cluster_;
  RunConfig cfg_;
  const InitInjection* init_;
  std::vector<PartState<P>> states_;
  CoherencyInspector<P> inspector_;
};

}  // namespace lazygraph::engine
