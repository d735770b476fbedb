// The machine-local apply+scatter sweep shared by the lazy engines:
// one serial pass over replicas with pending messages, applying each and
// pushing scatter messages along local out-edges (the paper's
// ScatterGatherMsg operator). One-edge-mode deposits also accumulate into the
// target's delta (when the target spans machines); parallel-edge deposits do
// not — they are already replicated on every machine of the target.
//
// Two semantics of the same sweep, both in ascending lvid order:
//   - Gauss-Seidel: deposits are visible to later vertices of the same
//     sweep (the lazy local computation stage). It walks the has_msg words
//     in place (Bitset::find_next) and needs no worklist.
//   - snapshot: only the vertices pending at entry apply, each with its
//     entry accumulator (Algorithm 1's coherency point). It collects the
//     entry frontier into the sweep scratch first.
// Either way every deposit folds directly into its slot in emission order
// (vertex ascending, then out-edge order), so the folded bits are a pure
// function of the entry state. Parallelism lives one level up: machines run
// concurrently on the shared pool, each sweeping its own part — so every
// flag write here (deposits, has_msg clears, applied marks) is an
// owner-only plain write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/state.hpp"

namespace lazygraph::engine {

/// Drives an init-placement body over each machine's replicas: the full
/// ascending lvid scan by default, or the injection's (ascending) worklist
/// when one is attached. Because the restricted pass visits a subsequence of
/// the scan's vertices in scan order, the deposits it makes are emitted in
/// the exact order the full scan would emit them — bit-identical results
/// whenever the worklist covers every vertex the program initializes.
/// body(m, v) writes only machine m's state, so the machines run in the
/// cluster's machine bodies. Returns the candidate slots examined (the init
/// share of sweep_scanned), summed in machine order.
template <class Body>
std::uint64_t for_each_init_vertex(const partition::DistributedGraph& dg,
                                   const InitInjection* inj,
                                   sim::Cluster& cluster, Body&& body) {
  std::vector<std::uint64_t> scanned(dg.num_machines(), 0);
  cluster.parallel_machines([&](machine_t m) {
    const lvid_t n = dg.part(m).num_local();
    if (inj && inj->has_frontier) {
      const auto& list = inj->frontier[m];
      scanned[m] = list.size();
      for (const lvid_t v : list) body(m, v);
    } else {
      scanned[m] = n;
      for (lvid_t v = 0; v < n; ++v) body(m, v);
    }
  });
  std::uint64_t total = 0;
  for (const std::uint64_t c : scanned) total += c;
  return total;
}

/// Initialization placement for the lazy engines: vertex init messages go to
/// every replica (replicated like a parallel-edge delivery, no delta), edge
/// init messages are deposited at each local edge copy.
template <VertexProgram P>
std::uint64_t init_lazy_messages(const P& prog,
                                 const partition::DistributedGraph& dg,
                                 std::vector<PartState<P>>& states,
                                 sim::Cluster& cluster,
                                 const InitInjection* inj = nullptr) {
  return for_each_init_vertex(dg, inj, cluster, [&](machine_t m, lvid_t v) {
    const partition::Part& part = dg.part(m);
    PartState<P>& s = states[m];
    const VertexInfo info = vertex_info<P>(part, v);
    if (const auto im = prog.init_vertex_message(info)) {
      deposit_msg(prog, s, v, *im);
    }
    if (part.offsets[v] == part.offsets[v + 1]) return;
    if (const auto em = prog.init_edge_message(info)) {
      for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
        const lvid_t u = part.targets[e];
        deposit_msg(prog, s, u, *em);
        if (!part.parallel_mode[e] && part.num_replicas(u) > 1) {
          deposit_delta(prog, s, u, *em);
        }
      }
    }
  });
}

/// Initialization placement for the eager engines (Sync/Async): vertex init
/// messages go to the master replica only (the gather phase collects mirror
/// partials there anyway), edge init messages to each local edge's target.
template <VertexProgram P>
std::uint64_t init_eager_messages(const P& prog,
                                  const partition::DistributedGraph& dg,
                                  std::vector<PartState<P>>& states,
                                  sim::Cluster& cluster,
                                  const InitInjection* inj = nullptr) {
  return for_each_init_vertex(dg, inj, cluster, [&](machine_t m, lvid_t v) {
    const partition::Part& part = dg.part(m);
    PartState<P>& s = states[m];
    const VertexInfo info = vertex_info<P>(part, v);
    if (part.master[v] == m) {
      if (const auto im = prog.init_vertex_message(info)) {
        deposit_msg(prog, s, v, *im);
      }
    }
    if (part.offsets[v] == part.offsets[v + 1]) return;
    if (const auto em = prog.init_edge_message(info)) {
      for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
        deposit_msg(prog, s, part.targets[e], *em);
      }
    }
  });
}

enum class SweepMode {
  /// Deposits made during the sweep are visible to later vertices of the
  /// same sweep — the paper's local computation stage ("new local views
  /// visible to local neighbours immediately"). Fast local convergence.
  kGaussSeidel,
  /// Only vertices with a message at sweep entry are processed; everything
  /// deposited during the sweep waits for the next round. This is Algorithm
  /// 1's coherency point (batch Applys then ScatterGatherMsgs): each vertex
  /// applies its *complete* round accumulator, which keeps threshold-based
  /// programs (PageRank-Delta) from splitting one superstep's delta into
  /// many sub-tolerance trickles.
  kSnapshot,
};

/// Applies `m` at v and pushes the payload along v's local out-edges,
/// depositing straight into the message (and, for one-edge-mode edges into
/// spanning targets, delta) slots. Deposits fold in emission order: vertex
/// order, then out-edge order.
template <VertexProgram P>
void apply_and_scatter(const P& prog, const partition::Part& part,
                       PartState<P>& s, lvid_t v, const typename P::Msg& m,
                       SweepCounters& c) {
  const VertexInfo info = vertex_info<P>(part, v);
  ++c.applies;
  ++c.work;
  s.applied.set(v);
  const auto payload = prog.apply(s.vdata[v], info, m);
  if (!payload) return;
  for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
    const lvid_t u = part.targets[e];
    const typename P::Msg out = prog.scatter(*payload, info, part.weights[e]);
    deposit_msg(prog, s, u, out);
    if (!part.parallel_mode[e] && part.num_replicas(u) > 1) {
      deposit_delta(prog, s, u, out);
    }
    ++c.work;
    ++c.pushed;
  }
}

/// Snapshot-semantics sweep: collect the entry frontier in ascending lvid
/// order with its accumulators, then apply+scatter it in that order. Every
/// deposit lands after the snapshot was taken, so none is consumed by this
/// sweep.
template <VertexProgram P>
SweepCounters sweep_snapshot(const P& prog, const partition::Part& part,
                             PartState<P>& s) {
  SweepCounters c;
  auto& sc = s.scratch;
  sc.snapshot.clear();
  sc.accums.clear();
  s.frontier.sort_unique();
  c.scanned += s.frontier.for_each_flagged(
      s.has_msg, [&](lvid_t v) { sc.snapshot.push_back(v); });
  for (const lvid_t v : sc.snapshot) {
    sc.accums.push_back(s.msg[v]);
    s.has_msg.reset(v);
  }
  s.frontier.clear();  // fully consumed; deposits below re-arm it
  for (std::size_t i = 0; i < sc.snapshot.size(); ++i) {
    apply_and_scatter(prog, part, s, sc.snapshot[i], sc.accums[i], c);
  }
  return c;
}

/// Serial Gauss-Seidel sweep: an ascending walk of the has_msg words
/// (Bitset::find_next) that re-reads each word as it goes, so fresh
/// activations *ahead* of the cursor join this sweep and activations at or
/// behind it (including v's own self-loops) carry to the next sweep —
/// exactly what a whole-array flag scan does.
///
/// Every flag is listed in the frontier while it is sparse, so the walk
/// visits the same vertices as the entry list would, in ascending order.
/// The list itself only keeps the bookkeeping: the entry count and the
/// per-apply triage of fresh activations are the sparse share of
/// sweep_scanned, and the triage compacts the carried-over activations in
/// place as the next sweep's frontier.
template <VertexProgram P>
SweepCounters sweep_gauss_seidel(const P& prog, const partition::Part& part,
                                 PartState<P>& s) {
  SweepCounters c;
  const lvid_t n = part.num_local();
  const auto apply_at = [&](lvid_t v) {
    const typename P::Msg m = s.msg[v];
    s.has_msg.reset(v);
    apply_and_scatter(prog, part, s, v, m, c);
  };

  std::size_t v = s.has_msg.find_next(0);
  if (s.frontier.is_dense()) {
    // Dense: the flags are the frontier. Behind-deposits leave their flags up
    // for the next sweep, so the frontier stays dense (invariant intact).
    c.scanned += n;
  } else {
    auto& list = s.frontier.entries();
    c.scanned += list.size();  // entries may be stale or duplicated
    list.clear();
    std::size_t carry = 0;  // entries()[0, carry) = next sweep's frontier
    for (; v < n; v = s.has_msg.find_next(v + 1)) {
      apply_at(static_cast<lvid_t>(v));
      if (s.frontier.is_dense()) {
        // An activation burst crossed the density threshold and dropped the
        // sparse bookkeeping; the walk goes on over the flags alone.
        c.scanned += n - v - 1;
        v = s.has_msg.find_next(v + 1);
        break;
      }
      // Triage fresh activations: ahead of the cursor is the walk's; at or
      // behind it carries to the next sweep, compacted in place at the
      // front of the list.
      for (std::size_t i = carry; i < list.size(); ++i) {
        ++c.scanned;
        if (list[i] <= v) list[carry++] = list[i];
      }
      list.resize(carry);
    }
  }
  for (; v < n; v = s.has_msg.find_next(v + 1)) {
    apply_at(static_cast<lvid_t>(v));
  }
  return c;
}

/// One serial apply+scatter sweep on one machine over replicas with pending
/// messages, in ascending lvid order.
template <VertexProgram P>
SweepCounters local_sweep(const P& prog, const partition::Part& part,
                          PartState<P>& s,
                          SweepMode mode = SweepMode::kGaussSeidel) {
  if (mode == SweepMode::kSnapshot) return sweep_snapshot(prog, part, s);
  return sweep_gauss_seidel(prog, part, s);
}

}  // namespace lazygraph::engine
