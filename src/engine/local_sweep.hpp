// The machine-local apply+scatter sweep shared by the lazy engines:
// one serial pass over replicas with pending messages, applying each and
// pushing scatter messages along local out-edges (the paper's
// ScatterGatherMsg operator). One-edge-mode deposits also accumulate into the
// target's delta (when the target spans machines); parallel-edge deposits do
// not — they are already replicated on every machine of the target.
//
// Two semantics of the same sweep, both frontier-driven and in ascending
// lvid order:
//   - Gauss-Seidel: deposits are visible to later vertices of the same
//     sweep (the lazy local computation stage).
//   - snapshot: only the vertices pending at entry apply, each with its
//     entry accumulator (Algorithm 1's coherency point).
// Either way every deposit folds directly into its slot in emission order
// (vertex ascending, then out-edge order), so the folded bits are a pure
// function of the entry state. Parallelism lives one level up: machines run
// concurrently on the shared pool, each sweeping its own part.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "engine/state.hpp"

namespace lazygraph::engine {

/// Drives an init-placement body over each machine's replicas: the full
/// ascending lvid scan by default, or the injection's (ascending) worklist
/// when one is attached. Because the restricted pass visits a subsequence of
/// the scan's vertices in scan order, the deposits it makes are emitted in
/// the exact order the full scan would emit them — bit-identical results
/// whenever the worklist covers every vertex the program initializes.
/// Returns the candidate slots examined (the init share of sweep_scanned).
template <class Body>
std::uint64_t for_each_init_vertex(const partition::DistributedGraph& dg,
                                   const InitInjection* inj, Body&& body) {
  std::uint64_t scanned = 0;
  for (machine_t m = 0; m < dg.num_machines(); ++m) {
    const lvid_t n = dg.part(m).num_local();
    if (inj && inj->has_frontier) {
      const auto& list = inj->frontier[m];
      scanned += list.size();
      for (const lvid_t v : list) body(m, v);
    } else {
      scanned += n;
      for (lvid_t v = 0; v < n; ++v) body(m, v);
    }
  }
  return scanned;
}

/// Initialization placement for the lazy engines: vertex init messages go to
/// every replica (replicated like a parallel-edge delivery, no delta), edge
/// init messages are deposited at each local edge copy.
template <VertexProgram P>
std::uint64_t init_lazy_messages(const P& prog,
                                 const partition::DistributedGraph& dg,
                                 std::vector<PartState<P>>& states,
                                 const InitInjection* inj = nullptr) {
  return for_each_init_vertex(dg, inj, [&](machine_t m, lvid_t v) {
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
                                  const InitInjection* inj = nullptr) {
  return for_each_init_vertex(dg, inj, [&](machine_t m, lvid_t v) {
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
  s.applied[v] = 1;
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
  const lvid_t n = part.num_local();
  auto& sc = s.scratch;
  sc.snapshot.clear();
  sc.accums.clear();
  if (s.frontier.is_dense() || !s.frontier.tracking()) {
    for (lvid_t v = 0; v < n; ++v) {
      if (s.has_msg[v]) sc.snapshot.push_back(v);
    }
    c.scanned += n;
  } else {
    s.frontier.sort_unique();
    c.scanned += s.frontier.entries().size();
    for (const lvid_t v : s.frontier.entries()) {
      if (s.has_msg[v]) sc.snapshot.push_back(v);
    }
  }
  for (const lvid_t v : sc.snapshot) {
    sc.accums.push_back(s.msg[v]);
    s.has_msg[v] = 0;
  }
  s.frontier.clear();  // fully consumed; deposits below re-arm it
  for (std::size_t i = 0; i < sc.snapshot.size(); ++i) {
    apply_and_scatter(prog, part, s, sc.snapshot[i], sc.accums[i], c);
  }
  return c;
}

/// Serial Gauss-Seidel sweep, frontier-driven. Processes pending vertices in
/// ascending lvid order (a min-heap worklist when sparse, a flag scan when
/// dense), which reproduces the historical whole-array scan bit-for-bit:
/// fresh activations *ahead* of the cursor join this sweep, activations at
/// or behind it carry to the next sweep — exactly what a scan would do.
template <VertexProgram P>
SweepCounters sweep_gauss_seidel(const P& prog, const partition::Part& part,
                                 PartState<P>& s) {
  SweepCounters c;
  const lvid_t n = part.num_local();

  if (s.frontier.is_dense() || !s.frontier.tracking()) {
    // Dense: the flags are the frontier. Behind-deposits leave their flags up
    // for the next sweep, so the frontier stays dense (invariant intact).
    for (lvid_t v = 0; v < n; ++v) {
      if (!s.has_msg[v]) continue;
      const typename P::Msg m = s.msg[v];
      s.has_msg[v] = 0;
      apply_and_scatter(prog, part, s, v, m, c);
    }
    c.scanned += n;
    return c;
  }

  // Sparse: seed a min-heap from the entry list (entries may be stale or
  // duplicated — the flag guard below filters both), then pop ascending.
  auto& heap = s.scratch.heap;
  {
    auto& list = s.frontier.entries();
    heap.assign(list.begin(), list.end());
    list.clear();
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  c.scanned += heap.size();

  std::size_t carry = 0;  // entries()[0, carry) = next sweep's frontier
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const lvid_t v = heap.back();
    heap.pop_back();
    if (!s.has_msg[v]) continue;  // stale or duplicate worklist entry
    const typename P::Msg m = s.msg[v];
    s.has_msg[v] = 0;
    apply_and_scatter(prog, part, s, v, m, c);

    if (s.frontier.is_dense()) {
      // An activation burst crossed the density threshold and dropped the
      // sparse bookkeeping. Every still-pending vertex is > v (behinds carry
      // over, in both representations), so scanning flags from v+1 visits
      // exactly what the serial scan would have visited next.
      heap.clear();
      c.scanned += n - v - 1;
      for (lvid_t u = v + 1; u < n; ++u) {
        if (!s.has_msg[u]) continue;
        const typename P::Msg mu = s.msg[u];
        s.has_msg[u] = 0;
        apply_and_scatter(prog, part, s, u, mu, c);
      }
      return c;
    }

    // Triage fresh activations: ahead of the cursor joins this sweep's
    // worklist; at or behind it (including v's own self-loops) carries to
    // the next sweep, compacted in place at the front of the list.
    auto& list = s.frontier.entries();
    for (std::size_t i = carry; i < list.size(); ++i) {
      const lvid_t u = list[i];
      ++c.scanned;
      if (u > v) {
        heap.push_back(u);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      } else {
        list[carry++] = u;
      }
    }
    list.resize(carry);
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
