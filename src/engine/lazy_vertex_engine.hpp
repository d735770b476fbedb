// LazyVertexAsync — Algorithm 2 of the paper (listed there as the engine to
// be implemented in future work on top of Async; we provide it as an
// extension). Queue-driven and barrier-free: each machine processes its
// active-vertex queue; a vertex runs plain local computation until it *needs*
// data coherency, at which point only that vertex's replicas exchange deltas
// (fine-grained, no global synchronization) and the merged global view
// becomes visible to neighbours as soon as possible.
//
// needDataCoherency(v) here: the replica has applied `staleness` local
// updates since its last coherency event; additionally, when every queue
// drains, all replicas with outstanding deltas are flushed (which either
// terminates the run or reactivates vertices).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "engine/local_sweep.hpp"
#include "engine/run_config.hpp"
#include "engine/state.hpp"
#include "recovery/recovery.hpp"
#include "sim/cluster.hpp"

namespace lazygraph::engine {

/// Reads max_supersteps (the cycle bound) and staleness from the RunConfig.
template <VertexProgram P>
class LazyVertexAsyncEngine {
 public:
  LazyVertexAsyncEngine(const partition::DistributedGraph& dg, P prog,
                        sim::Cluster& cluster, const RunConfig& cfg,
                        const InitInjection* init,
                        CoherencyInspector<P> inspect)
      : dg_(dg),
        prog_(std::move(prog)),
        cluster_(cluster),
        cfg_(cfg),
        init_(init),
        inspector_(std::move(inspect)) {
    require(cluster.num_machines() == dg.num_machines(),
            "LazyVertexAsyncEngine: cluster/graph machine count mismatch");
  }

  RunResult<P> run() {
    const machine_t p = dg_.num_machines();
    states_ = make_states(dg_, prog_, cluster_, init_);
    cluster_.metrics().sweep_scanned +=
        init_lazy_messages(prog_, dg_, states_, cluster_, init_);

    queues_.assign(p, {});
    in_queue_.clear();
    applies_since_.resize(p);
    flush_marks_.clear();
    for (machine_t m = 0; m < p; ++m) {
      const lvid_t n = dg_.part(m).num_local();
      in_queue_.emplace_back(n);
      flush_marks_.emplace_back(n);
      applies_since_[m].assign(n, 0);
      for (lvid_t v = 0; v < n; ++v) {
        if (states_[m].has_msg[v]) enqueue(m, v);
      }
    }

    // This engine keeps activation state outside PartState (the queues and
    // staleness counters), so the recoverer snapshots/restores it through
    // the extra-state hooks alongside the replica tables.
    recovery::Recoverer<P> recoverer(cluster_, dg_);
    recoverer.set_extra_state_hooks(
        [this](machine_t m) { return save_queue_state(m); },
        [this](machine_t m, const std::vector<std::uint8_t>& blob) {
          restore_queue_state(m, blob);
        });

    RunResult<P> result;
    std::vector<std::uint64_t> work(p);

    for (std::uint64_t cycle = 0; cycle < cfg_.max_supersteps; ++cycle) {
      std::fill(work.begin(), work.end(), 0);
      msgs_ = bytes_ = wire_ = 0;
      bool any = false;
      std::uint64_t active = 0;
      for (machine_t m = 0; m < p; ++m) active += queues_[m].size();

      for (machine_t m = 0; m < p; ++m) {
        // Snapshot the queue length: items pushed during this cycle are
        // handled next cycle (keeps cycles finite and deterministic).
        std::size_t budget = queues_[m].size();
        while (budget-- > 0) {
          const lvid_t v = queues_[m].front();
          queues_[m].pop_front();
          in_queue_[m].reset(v);
          any |= step_vertex(m, v, work);
        }
      }

      if (!any) {
        // All queues drained: flush outstanding deltas. If that delivers
        // nothing new, the algorithm has terminated; the detection cycle did
        // no work and is not counted as a superstep.
        if (!flush_all_deltas(work)) {
          result.converged = true;
          if (inspector_) inspector_(result.supersteps, states_);
          break;
        }
        // Drain cycle: the flush reactivated vertices. Report the delivered
        // activations, not the (empty) pre-flush queue length.
        active = 0;
        for (machine_t m = 0; m < p; ++m) active += queues_[m].size();
      }
      ++cluster_.metrics().supersteps;
      ++result.supersteps;
      cluster_.charge_compute(sim::SpanKind::kLocalStage, work);
      cluster_.charge_fine_grained(sim::SpanKind::kCoherencyExchange, bytes_,
                                   wire_, msgs_);
      if (sim::Tracer* t = cluster_.tracer()) {
        t->record_superstep({.superstep = result.supersteps,
                            .active_vertices = active});
      }
      // Fault-injection point: end of a counted cycle. Not a replica-
      // coherent cut like the other engines' (per-vertex coherency leaves
      // deliveries pending), but the guard image + queue snapshot capture
      // the full machine state, so a rebuild is still bit-exact.
      recoverer.on_coherency_point(result.supersteps, states_);
    }

    finalize_result(result, cluster_, dg_, states_);
    return result;
  }

 private:
  void enqueue(machine_t m, lvid_t v) {
    if (!in_queue_[m][v]) {
      in_queue_[m].set(v);
      queues_[m].push_back(v);
    }
  }

  /// Processes one queued replica; returns whether it did anything.
  bool step_vertex(machine_t m, lvid_t v, std::vector<std::uint64_t>& work) {
    const partition::Part& part = dg_.part(m);
    PartState<P>& s = states_[m];
    const bool spans = part.num_replicas(v) > 1;

    bool did = false;
    if (spans && applies_since_[m][v] >= cfg_.staleness) {
      did |= coherency_event(m, v, work);
    }
    if (!s.has_msg[v]) return did;

    // Stage 1 of Algorithm 2: local apply + scatter.
    const typename P::Msg acc = s.msg[v];
    s.has_msg.reset(v);
    const VertexInfo info = vertex_info<P>(part, v);
    ++cluster_.metrics().applies;
    ++work[m];
    if (spans) ++applies_since_[m][v];
    s.applied.set(v);
    const auto payload = prog_.apply(s.vdata[v], info, acc);
    if (payload) {
      for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
        const lvid_t u = part.targets[e];
        const typename P::Msg out =
            prog_.scatter(*payload, info, part.weights[e]);
        deposit_msg(prog_, s, u, out);
        if (!part.parallel_mode[e] && part.num_replicas(u) > 1) {
          deposit_delta(prog_, s, u, out);
        }
        enqueue(m, u);
        ++work[m];
      }
    }
    return true;
  }

  /// Per-vertex data coherency: all replicas of the vertex exchange deltas
  /// (counted as fine-grained all-to-all traffic), fold in the others', and
  /// are reactivated. Returns whether any delta was outstanding.
  bool coherency_event(machine_t m, lvid_t v,
                       std::vector<std::uint64_t>& work) {
    const partition::Part& part = dg_.part(m);

    bool have = false;
    typename P::Msg total{};
    std::uint32_t nd = 0;
    auto fold = [&](machine_t rm, lvid_t rv) {
      PartState<P>& rs = states_[rm];
      if (!rs.has_delta[rv]) return;
      total = have ? prog_.sum(total, rs.delta[rv]) : rs.delta[rv];
      have = true;
      ++nd;
    };
    bool self_done = false;
    for (const auto& [r, rl] : part.remote_replicas[v]) {
      if (!self_done && m < r) {
        fold(m, v);
        self_done = true;
      }
      fold(r, rl);
    }
    if (!self_done) fold(m, v);

    applies_since_[m][v] = 0;
    if (nd == 0) return false;

    auto deliver = [&](machine_t rm, lvid_t rv) {
      PartState<P>& rs = states_[rm];
      if (rs.has_delta[rv]) {
        if (nd > 1) {
          deposit_msg(prog_, rs, rv, without_own(prog_, total, rs.delta[rv]));
        }
        rs.has_delta.reset(rv);
      } else {
        deposit_msg(prog_, rs, rv, total);
      }
      applies_since_[rm][rv] = 0;
      if (rs.has_msg[rv]) enqueue(rm, rv);
      ++work[rm];
    };
    deliver(m, v);
    for (const auto& [r, rl] : part.remote_replicas[v]) deliver(r, rl);

    const std::uint32_t rnum = part.num_replicas(v);
    const std::uint64_t cnt = static_cast<std::uint64_t>(nd) * (rnum - 1);
    msgs_ += cnt;
    bytes_ += cnt * wire_bytes<typename P::Msg>();
    // Per-vertex coherency events ship one record at a time — charged as
    // single-record wire frames (no batch to delta-compress).
    wire_ += cnt * wire::single_record_bytes(part.gids[v],
                                             sizeof(typename P::Msg));
    ++cluster_.metrics().vertex_coherency_events;
    return true;
  }

  /// Flushes every vertex with an outstanding delta (master-driven so each
  /// vertex is visited once, in ascending lvid order per machine): every
  /// flagged delta on the delta frontiers marks its master, and each
  /// machine's marks are drained. Unlike the historical full scan, masters
  /// with no outstanding delta anywhere are not visited, so their staleness
  /// counters are not reset at a flush — a deterministic schedule change
  /// with the same termination condition (flushes deliver exactly the
  /// outstanding deltas either way). Returns whether anything was delivered.
  bool flush_all_deltas(std::vector<std::uint64_t>& work) {
    const machine_t p = dg_.num_machines();
    for (machine_t r = 0; r < p; ++r) {
      const partition::Part& rp = dg_.part(r);
      PartState<P>& rs = states_[r];
      cluster_.metrics().sweep_scanned +=
          rs.delta_frontier.for_each_flagged(rs.has_delta, [&](lvid_t u) {
            flush_marks_[rp.master[u]].set(rp.master_lvid[u]);
          });
      // Every flagged delta below is cleared by its coherency event, so the
      // worklist can be dropped now.
      rs.delta_frontier.clear();
    }
    bool delivered = false;
    for (machine_t m = 0; m < p; ++m) {
      const partition::Part& part = dg_.part(m);
      flush_marks_[m].drain([&](std::size_t i) {
        const lvid_t v = static_cast<lvid_t>(i);
        if (part.num_replicas(v) <= 1) return;
        delivered |= coherency_event(m, v, work);
      });
      assert(!flush_marks_[m].any() && "flush left a master marked");
    }
    return delivered;
  }

  /// Serializes machine m's engine-private activation state for the guard
  /// image: queue contents (order matters — it is the processing schedule)
  /// followed by the raw staleness counters. in_queue_ is derivable (queue
  /// membership) and rebuilt on restore.
  std::vector<std::uint8_t> save_queue_state(machine_t m) const {
    const std::uint64_t count = queues_[m].size();
    std::vector<std::uint8_t> blob(sizeof(count) + count * sizeof(lvid_t) +
                                   applies_since_[m].size() *
                                       sizeof(std::uint32_t));
    std::uint8_t* out = blob.data();
    std::memcpy(out, &count, sizeof(count));
    out += sizeof(count);
    for (const lvid_t v : queues_[m]) {
      std::memcpy(out, &v, sizeof(v));
      out += sizeof(v);
    }
    if (!applies_since_[m].empty()) {
      std::memcpy(out, applies_since_[m].data(),
                  applies_since_[m].size() * sizeof(std::uint32_t));
    }
    return blob;
  }

  void restore_queue_state(machine_t m, const std::vector<std::uint8_t>& blob) {
    const std::uint8_t* in = blob.data();
    std::uint64_t count = 0;
    std::memcpy(&count, in, sizeof(count));
    in += sizeof(count);
    queues_[m].clear();
    in_queue_[m] = OwnedBits(dg_.part(m).num_local());
    for (std::uint64_t i = 0; i < count; ++i) {
      lvid_t v;
      std::memcpy(&v, in, sizeof(v));
      in += sizeof(v);
      queues_[m].push_back(v);
      in_queue_[m].set(v);
    }
    if (!applies_since_[m].empty()) {
      std::memcpy(applies_since_[m].data(), in,
                  applies_since_[m].size() * sizeof(std::uint32_t));
    }
  }

  const partition::DistributedGraph& dg_;
  P prog_;
  sim::Cluster& cluster_;
  RunConfig cfg_;
  const InitInjection* init_;
  std::vector<PartState<P>> states_;
  std::vector<std::deque<lvid_t>> queues_;
  // Per machine: queue membership, and the masters marked for a flush.
  std::vector<OwnedBits> in_queue_, flush_marks_;
  std::vector<std::vector<std::uint32_t>> applies_since_;
  CoherencyInspector<P> inspector_;
  std::uint64_t msgs_ = 0, bytes_ = 0, wire_ = 0;
};

}  // namespace lazygraph::engine
