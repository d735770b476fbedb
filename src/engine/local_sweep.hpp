// The machine-local apply+scatter sweep shared by the lazy engines:
// one pass over replicas with pending messages, applying each and pushing
// scatter messages along local out-edges (the paper's ScatterGatherMsg
// operator). One-edge-mode deposits also accumulate into the target's delta
// (when the target spans machines); parallel-edge deposits do not — they are
// already replicated on every machine of the target.
//
// Two executions of the same sweep:
//   - sweep_gauss_seidel: serial, frontier-driven worklist in ascending lvid
//     order; deposits are visible to later vertices of the same sweep.
//   - sweep_chunked: snapshot semantics, deterministically parallel, in one
//     of two directions (adaptive by default, Beamer-style):
//       push — the entry frontier is split into edge-balanced chunks; each
//       worker stages its deposits in chunk-private buffers bucketed by
//       target range, and the merge folds every target's messages in
//       (chunk asc, emission asc) order. That per-target fold order equals
//       the serial emission order, so results are bit-identical for ANY
//       thread count and ANY range count — ranges only redistribute which
//       thread performs a fold, never its order.
//       pull — applies park their scatter payloads in the slab arena, then
//       target-parallel workers fold each target's in-edge CSC run (ordered
//       by (source lvid, original edge index) at graph build) directly into
//       the message slots: no staging, no merge barrier. The run order
//       equals the push merge's per-target fold order over the same
//       productive edges, so the two directions are bit-identical too
//       (DESIGN §5k).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/state.hpp"
#include "engine/sweep_direction.hpp"
#include "util/function_ref.hpp"

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
  /// Requesting more than one thread switches to snapshot semantics (the
  /// thread budget is an algorithm knob, like staleness — Gauss-Seidel's
  /// in-sweep dependency chain cannot be parallelized deterministically).
  kGaussSeidel,
  /// Only vertices with a message at sweep entry are processed; everything
  /// deposited during the sweep waits for the next round. This is Algorithm
  /// 1's coherency point (batch Applys then ScatterGatherMsgs): each vertex
  /// applies its *complete* round accumulator, which keeps threshold-based
  /// programs (PageRank-Delta) from splitting one superstep's delta into
  /// many sub-tolerance trickles.
  kSnapshot,
};

/// Cumulative (1 + degree) weight budget per sweep chunk. Degree-derived —
/// never thread-derived — so the chunk decomposition (and with it the merge
/// order and every counter) is identical across thread counts, while a run
/// of high-degree vertices splits into many chunks instead of serializing
/// one worker behind the heaviest vertex.
inline constexpr std::uint64_t kSweepEdgeBudget = 2048;

/// Intra-machine execution budget for a sweep: which cluster's pool to
/// borrow and how many threads this machine may use. Default = serial.
struct SweepExec {
  const sim::Cluster* cluster = nullptr;
  std::uint32_t threads = 1;
};

/// Runs body(begin, end) over [0, n) in chunk_size-aligned slices, on the
/// cluster pool when the exec budget allows, inline otherwise.
inline void run_chunks(const SweepExec& exec, std::size_t n,
                       std::size_t chunk_size,
                       util::FunctionRef<void(std::size_t, std::size_t)> body) {
  if (exec.cluster != nullptr && exec.threads > 1) {
    exec.cluster->run_chunks(n, chunk_size, exec.threads, body);
    return;
  }
  for (std::size_t b = 0; b < n; b += chunk_size) {
    body(b, std::min(n, b + chunk_size));
  }
}

/// Resolves one chunked sweep's direction over its ascending work list:
/// true = pull. The adaptive rule is the sweep-cost crossover: push pays a
/// staged write plus a merge read per frontier out-edge (2 * frontier
/// edges), pull pays one scan of every local in-edge (num_local_edges).
/// Deterministic — both inputs are exact counters. Parts without the CSC
/// mirror (hand-assembled fixtures) always push, as does the empty sweep
/// (nothing to do either way).
inline bool sweep_pulls(const partition::Part& part,
                        std::span<const lvid_t> items, SweepDirection dir) {
  const bool has_mirror =
      part.in_offsets.size() == static_cast<std::size_t>(part.num_local()) + 1;
  if (items.empty() || !has_mirror) return false;
  if (dir != SweepDirection::kAdaptive) return dir == SweepDirection::kPull;
  std::uint64_t frontier_edges = 0;
  for (const lvid_t v : items) {
    frontier_edges += part.offsets[v + 1] - part.offsets[v];
  }
  return 2 * frontier_edges >= part.num_local_edges();
}

/// One machine's sweeps over (part of) a superstep: the summed counters and
/// the machine's direction vote — -1 no vote, 0 push, 1 pull, 2 mixed. Each
/// engine decides which sweeps vote.
struct SweepTally {
  SweepCounters sum;
  int vote = -1;

  void add(const SweepCounters& c, bool votes) {
    sum += c;
    if (votes) vote = join_vote(vote, c.pull_rounds > 0 ? 1 : 0);
  }
  /// Votes join like a semilattice: -1 is the identity, any disagreement
  /// is 2, so the superstep aggregate is independent of fold order.
  static int join_vote(int a, int b) {
    if (a == -1) return b;
    if (b == -1) return a;
    return a == b ? a : 2;
  }
};

/// Folds a machine's tally into the run metrics (the direction-attributed
/// counters; engines charge work, applies and scans themselves) and joins
/// its vote into the superstep's direction `dir`. Serial: cluster metrics
/// are not thread-safe.
inline void fold_sweep(sim::SimMetrics& metrics, const SweepTally& t,
                       int& dir) {
  metrics.sweep_pull_rounds += t.sum.pull_rounds;
  metrics.sweep_edges_pushed += t.sum.pushed;
  metrics.sweep_edges_pulled += t.sum.pulled;
  metrics.sweep_staging_avoided_bytes += t.sum.staging_avoided_bytes;
  dir = SweepTally::join_vote(dir, t.vote);
}

/// Write handle a chunk worker stages its deposits through: (target, msg)
/// pairs land in this chunk's private buckets, partitioned by target range
/// so merge workers own disjoint targets.
template <class Msg>
class ChunkEmitter {
 public:
  ChunkEmitter(SweepScratch<Msg>& sc, std::size_t chunk, std::size_t nranges,
               lvid_t n)
      : sc_(sc),
        base_(chunk * nranges),
        last_(nranges - 1),
        scale_(static_cast<double>(nranges) /
               static_cast<double>(n ? n : 1)) {}

  void msg(lvid_t v, const Msg& m) {
    sc_.buckets[base_ + range_of(v)].msgs.emplace_back(v, m);
  }
  void delta(lvid_t v, const Msg& m) {
    sc_.buckets[base_ + range_of(v)].deltas.emplace_back(v, m);
  }

 private:
  /// One multiply per deposit against the reciprocal precomputed at sweep
  /// setup (the old v*nranges/n paid a widening multiply AND a divide on
  /// every deposit). Range assignment only decides WHICH merge worker folds
  /// a target — never the fold order — so the formula need not match the
  /// old integer rounding; it only has to be deterministic, which IEEE
  /// double multiply is. The clamp covers rounding at the top edge.
  std::size_t range_of(lvid_t v) const {
    const auto r =
        static_cast<std::size_t>(static_cast<double>(v) * scale_);
    return r < last_ ? r : last_;
  }

  SweepScratch<Msg>& sc_;
  const std::size_t base_;
  const std::size_t last_;
  const double scale_;
};

/// Splits `n` items into chunks closed at the fixed kSweepEdgeBudget
/// cumulative weight: chunk c spans items [bounds[c], bounds[c+1]) and, when
/// `weights` is non-null, weights[c] holds the chunk's total weight (the
/// staging reserve hint). weight(i) must be >= 1 so zero-degree runs still
/// advance the budget. Purely degree-derived: identical for every thread
/// count, which keeps the merge order — and every counter — thread-invariant.
template <class Weight>
void build_weighted_chunks(std::size_t n, Weight&& weight,
                           std::vector<std::size_t>& bounds,
                           std::vector<std::uint64_t>* weights) {
  bounds.clear();
  bounds.push_back(0);
  if (weights) weights->clear();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += weight(i);
    if (acc >= kSweepEdgeBudget) {
      bounds.push_back(i + 1);
      if (weights) weights->push_back(acc);
      acc = 0;
    }
  }
  if (bounds.back() != n) {
    bounds.push_back(n);
    if (weights) weights->push_back(acc);
  }
}

/// The deterministic chunk-and-ordered-merge engine (the PUSH direction):
/// runs produce(i, emitter, counters) for every item i in [0, n_items),
/// staging all deposits, then folds them into s.msg / s.delta. item_of(i)
/// maps an item to its local vertex — the edge-balanced chunk decomposition
/// weighs each item by 1 + its local out-degree.
///
/// Stage A (parallel over edge-balanced chunks): workers run `produce`,
/// staging deposits in chunk-private buckets (reserved up front to the
/// chunk's balanced per-range share so staging never reallocates mid-chunk)
/// and counting into chunk-private counters.
/// Stage B (parallel over target ranges): each range worker folds its
/// targets' staged pairs in (chunk asc, emission asc) order via the raw
/// deposits, recording fresh activations per range.
/// Stage C (serial): activations are appended to the frontiers (their lists
/// are not thread-safe), counters folded in chunk order, and the staging
/// pool's usage recorded for the trim policy.
///
/// `produce` may freely mutate per-item-exclusive state (s.vdata[item's
/// vertex]) but must route every msg/delta deposit through the emitter.
template <VertexProgram P, class ItemOf, class Produce>
SweepCounters chunked_deposit_pass(const P& prog, const partition::Part& part,
                                   PartState<P>& s, std::size_t n_items,
                                   const SweepExec& exec, ItemOf&& item_of,
                                   Produce&& produce) {
  SweepCounters c;
  if (n_items == 0) return c;
  auto& sc = s.scratch;
  build_weighted_chunks(
      n_items,
      [&](std::size_t i) {
        const lvid_t v = item_of(i);
        return 1 + (part.offsets[v + 1] - part.offsets[v]);
      },
      sc.chunk_bounds, &sc.chunk_edges);
  const std::size_t nchunks = sc.chunk_bounds.size() - 1;
  // Range count caps the merge fanout; it does NOT affect results (per-target
  // fold order is range-independent), so deriving it from the budget is safe.
  const std::size_t nranges =
      std::max<std::size_t>(1, std::min<std::size_t>(exec.threads, 16));
  const std::size_t need = nchunks * nranges;
  if (sc.buckets.size() < need) sc.buckets.resize(need);  // grow-only pool
  for (std::size_t b = 0; b < need; ++b) {
    sc.buckets[b].msgs.clear();
    sc.buckets[b].deltas.clear();
  }
  sc.chunk_counters.assign(nchunks, SweepCounters{});
  if (sc.msg_activations.size() < nranges) sc.msg_activations.resize(nranges);
  if (sc.delta_activations.size() < nranges) {
    sc.delta_activations.resize(nranges);
  }
  for (std::size_t r = 0; r < nranges; ++r) {
    sc.msg_activations[r].clear();
    sc.delta_activations[r].clear();
  }

  const lvid_t n = part.num_local();
  // Uniform bucket reserve hint: the balanced per-range share of the
  // heaviest chunk ANY frontier can produce (a chunk closes past the budget,
  // so its weight is < budget + the heaviest single item), with +16 slack
  // absorbing uneven target hashing. Frontier-independent on purpose: the
  // chunk -> bucket index mapping shifts between sweeps as the frontier
  // shrinks, so a per-chunk hint keeps meeting colder buckets and
  // reallocates in steady state; this bound warms every bucket once.
  if (sc.max_item_weight == 0) {
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      const std::uint64_t w = 1 + (part.offsets[v + 1] - part.offsets[v]);
      if (w > sc.max_item_weight) sc.max_item_weight = w;
    }
  }
  const std::size_t hint =
      static_cast<std::size_t>(kSweepEdgeBudget + sc.max_item_weight) /
          nranges +
      16;
  run_chunks(exec, nchunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t ci = cb; ci < ce; ++ci) {
      for (std::size_t r = 0; r < nranges; ++r) {
        auto& bk = sc.buckets[ci * nranges + r];
        if (bk.msgs.capacity() < hint) bk.msgs.reserve(hint);
        if (bk.deltas.capacity() < hint) bk.deltas.reserve(hint);
      }
      ChunkEmitter<typename P::Msg> em(sc, ci, nranges, n);
      SweepCounters& cc = sc.chunk_counters[ci];
      for (std::size_t i = sc.chunk_bounds[ci]; i < sc.chunk_bounds[ci + 1];
           ++i) {
        produce(i, em, cc);
      }
    }
  });

  run_chunks(exec, nranges, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      auto& fresh_msgs = sc.msg_activations[r];
      auto& fresh_deltas = sc.delta_activations[r];
      for (std::size_t ci = 0; ci < nchunks; ++ci) {
        const auto& bucket = sc.buckets[ci * nranges + r];
        for (const auto& [v, m] : bucket.msgs) {
          if (deposit_msg_raw(prog, s, v, m)) fresh_msgs.push_back(v);
        }
        for (const auto& [v, m] : bucket.deltas) {
          if (deposit_delta_raw(prog, s, v, m)) fresh_deltas.push_back(v);
        }
      }
    }
  });

  std::size_t activations = 0;
  for (std::size_t r = 0; r < nranges; ++r) {
    activations +=
        sc.msg_activations[r].size() + sc.delta_activations[r].size();
    for (const lvid_t v : sc.msg_activations[r]) s.frontier.activate(v);
    for (const lvid_t v : sc.delta_activations[r]) {
      s.delta_frontier.activate(v);
    }
  }
  for (const SweepCounters& cc : sc.chunk_counters) c += cc;
  // What the uniform reserve asked the pool to retain: every bucket of every
  // chunk, msgs + deltas, at `hint` pairs each.
  std::uint64_t requested = 2 * static_cast<std::uint64_t>(need) * hint;
  for (std::size_t ci = 0; ci < nchunks; ++ci) {
    for (std::size_t r = 0; r < nranges; ++r) {
      const auto& bucket = sc.buckets[ci * nranges + r];
      c.pushed += bucket.msgs.size();
      c.staged += bucket.msgs.size() + bucket.deltas.size();
    }
  }
  // The sweep's working set: what it staged (or asked the pool to reserve,
  // whichever is larger) plus the snapshot-side scratch. Feeds the 4x
  // high-water trim policy.
  constexpr std::size_t kPair = sizeof(std::pair<lvid_t, typename P::Msg>);
  sc.note_sweep_usage(sc.snapshot.size() * sizeof(lvid_t) +
                      sc.accums.size() * sizeof(typename P::Msg) +
                      activations * sizeof(lvid_t) +
                      static_cast<std::size_t>(
                          std::max<std::uint64_t>(c.staged, requested)) *
                          kPair);
  return c;
}

/// The PULL direction's fold: target-parallel scan of the part's in-edge CSC
/// mirror, folding contributions from every source whose has_payload flag is
/// up straight into s.msg — no staging, no merge barrier. Each target's
/// in-edge run is ordered (source lvid, original edge index) at graph build,
/// which is exactly the (chunk asc, emission asc) order the push merge folds
/// that target's staged pairs in, so the folded bits are identical to the
/// push pass's over the same payload set. WithDeltas selects the lazy
/// contract (one-edge-mode deltas for spanning targets); the eager scatter
/// broadcast uses messages only. Does NOT touch has_payload — callers own
/// the payload lifecycle (set before, retire after).
template <bool WithDeltas, VertexProgram P>
SweepCounters pull_deposit_pass(const P& prog, const partition::Part& part,
                                PartState<P>& s, const SweepExec& exec) {
  SweepCounters c;
  c.pull_rounds = 1;
  auto& sc = s.scratch;
  const lvid_t n = part.num_local();
  if (sc.target_bounds.size() != 0 &&
      sc.target_bounds.back() != static_cast<std::size_t>(n)) {
    sc.target_bounds.clear();  // part shape changed under a reused state
  }
  if (sc.target_bounds.empty()) {
    // Static decomposition of the target id space, weighted by in-degree:
    // frontier-independent, so it is built once per part and cached.
    build_weighted_chunks(
        n,
        [&](std::size_t v) {
          return 1 + (part.in_offsets[v + 1] - part.in_offsets[v]);
        },
        sc.target_bounds, nullptr);
  }
  const std::size_t nchunks = sc.target_bounds.size() - 1;
  sc.chunk_counters.assign(nchunks, SweepCounters{});
  if (sc.msg_activations.size() < nchunks) sc.msg_activations.resize(nchunks);
  if (sc.delta_activations.size() < nchunks) {
    sc.delta_activations.resize(nchunks);
  }
  for (std::size_t k = 0; k < nchunks; ++k) {
    sc.msg_activations[k].clear();
    sc.delta_activations[k].clear();
  }
  constexpr std::size_t kPair = sizeof(std::pair<lvid_t, typename P::Msg>);

  run_chunks(exec, nchunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t ci = cb; ci < ce; ++ci) {
      SweepCounters& cc = sc.chunk_counters[ci];
      auto& fresh_msgs = sc.msg_activations[ci];
      auto& fresh_deltas = sc.delta_activations[ci];
      const auto tb = static_cast<lvid_t>(sc.target_bounds[ci]);
      const auto te = static_cast<lvid_t>(sc.target_bounds[ci + 1]);
      for (lvid_t t = tb; t < te; ++t) {
        for (std::uint64_t e = part.in_offsets[t]; e < part.in_offsets[t + 1];
             ++e) {
          ++cc.pulled;
          const lvid_t u = part.in_sources[e];
          if (!s.has_payload[u]) continue;
          const typename P::Msg out = prog.scatter(
              s.payload[u], vertex_info<P>(part, u), part.in_weights[e]);
          if (deposit_msg_raw(prog, s, t, out)) fresh_msgs.push_back(t);
          cc.staging_avoided_bytes += kPair;
          if (WithDeltas && !part.in_parallel_mode[e] &&
              part.num_replicas(t) > 1) {
            if (deposit_delta_raw(prog, s, t, out)) {
              fresh_deltas.push_back(t);
            }
            cc.staging_avoided_bytes += kPair;
          }
          ++cc.work;  // one productive edge = push's one emitted out-edge
        }
      }
    }
  });

  // Serial epilogue: activations concatenate in target-chunk order
  // (ascending target). That differs from push's range-grouped order, but
  // the SET and count are identical, and every frontier consumer is
  // entry-order-independent (heap-sorted, sort_unique'd, or a flag scan).
  std::size_t activations = 0;
  for (std::size_t k = 0; k < nchunks; ++k) {
    activations +=
        sc.msg_activations[k].size() + sc.delta_activations[k].size();
    for (const lvid_t v : sc.msg_activations[k]) s.frontier.activate(v);
    for (const lvid_t v : sc.delta_activations[k]) {
      s.delta_frontier.activate(v);
    }
  }
  for (const SweepCounters& cc : sc.chunk_counters) c += cc;
  sc.note_sweep_usage(sc.snapshot.size() * sizeof(lvid_t) +
                      sc.accums.size() * sizeof(typename P::Msg) +
                      activations * sizeof(lvid_t));
  return c;
}

/// Snapshot-semantics sweep via the chunked pass: collect the entry frontier
/// in ascending lvid order, then apply+scatter it chunk-parallel — push or
/// pull per `dir` (adaptive resolves per sweep from the frontier's out-edge
/// mass). Bit-identical to a serial snapshot sweep for every thread count
/// and every direction.
template <VertexProgram P>
SweepCounters sweep_chunked(const P& prog, const partition::Part& part,
                            PartState<P>& s, const SweepExec& exec,
                            SweepDirection dir = SweepDirection::kAdaptive) {
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

  if (sweep_pulls(part, sc.snapshot, dir)) {
    // Stage 1 (parallel over edge-balanced item chunks): apply each
    // snapshot vertex and park its scatter payload in the slab arena's
    // payload slot for the fold to read.
    build_weighted_chunks(
        sc.snapshot.size(),
        [&](std::size_t i) {
          const lvid_t v = sc.snapshot[i];
          return 1 + (part.offsets[v + 1] - part.offsets[v]);
        },
        sc.chunk_bounds, &sc.chunk_edges);
    const std::size_t nchunks = sc.chunk_bounds.size() - 1;
    sc.chunk_counters.assign(nchunks, SweepCounters{});
    run_chunks(exec, nchunks, 1, [&](std::size_t cb, std::size_t ce) {
      for (std::size_t ci = cb; ci < ce; ++ci) {
        SweepCounters& cc = sc.chunk_counters[ci];
        for (std::size_t i = sc.chunk_bounds[ci];
             i < sc.chunk_bounds[ci + 1]; ++i) {
          const lvid_t v = sc.snapshot[i];
          ++cc.applies;
          ++cc.work;  // the apply; productive edges are counted by the fold
          s.applied[v] = 1;  // item-exclusive, like s.vdata[v]
          const auto payload =
              prog.apply(s.vdata[v], vertex_info<P>(part, v), sc.accums[i]);
          if (!payload) continue;
          s.payload[v] = *payload;
          s.has_payload[v] = 1;
        }
      }
    });
    for (const SweepCounters& cc : sc.chunk_counters) c += cc;
    // Stage 2: fold every target's in-edge run from the payload slots.
    c += pull_deposit_pass<true>(prog, part, s, exec);
    // The payload slots were pull staging: retire the flags. (The residue
    // values are dead but deterministic, so state images stay comparable.)
    for (const lvid_t v : sc.snapshot) s.has_payload[v] = 0;
    return c;
  }

  const SweepCounters folded = chunked_deposit_pass(
      prog, part, s, sc.snapshot.size(), exec,
      [&](std::size_t i) { return sc.snapshot[i]; },
      [&](std::size_t i, ChunkEmitter<typename P::Msg>& em,
          SweepCounters& cc) {
        const lvid_t v = sc.snapshot[i];
        const VertexInfo info = vertex_info<P>(part, v);
        ++cc.applies;
        ++cc.work;
        s.applied[v] = 1;  // item-exclusive, like s.vdata[v]
        const auto payload = prog.apply(s.vdata[v], info, sc.accums[i]);
        if (!payload) return;
        for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1];
             ++e) {
          const lvid_t u = part.targets[e];
          const typename P::Msg out =
              prog.scatter(*payload, info, part.weights[e]);
          em.msg(u, out);
          if (!part.parallel_mode[e] && part.num_replicas(u) > 1) {
            em.delta(u, out);
          }
          ++cc.work;
        }
      });
  c += folded;
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

  auto process = [&](lvid_t v, const typename P::Msg& m) {
    const VertexInfo info = vertex_info<P>(part, v);
    ++c.applies;
    ++c.work;
    s.applied[v] = 1;
    const auto payload = prog.apply(s.vdata[v], info, m);
    if (!payload) return;
    for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
      const lvid_t u = part.targets[e];
      const typename P::Msg out =
          prog.scatter(*payload, info, part.weights[e]);
      deposit_msg(prog, s, u, out);
      if (!part.parallel_mode[e] && part.num_replicas(u) > 1) {
        deposit_delta(prog, s, u, out);
      }
      ++c.work;
      ++c.pushed;  // direct deposits, but push-direction edge traffic
    }
  };

  if (s.frontier.is_dense() || !s.frontier.tracking()) {
    // Dense: the flags are the frontier. Behind-deposits leave their flags up
    // for the next sweep, so the frontier stays dense (invariant intact).
    for (lvid_t v = 0; v < n; ++v) {
      if (!s.has_msg[v]) continue;
      const typename P::Msg m = s.msg[v];
      s.has_msg[v] = 0;
      process(v, m);
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
    process(v, m);

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
        process(u, mu);
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

/// One apply+scatter sweep on machine `m` over replicas with pending
/// messages (ascending lvid order; bit-deterministic for any exec budget
/// and any direction). `dir` steers the chunked sweep only — Gauss-Seidel
/// is serial push by definition (its in-sweep dependency chain has no pull
/// formulation).
template <VertexProgram P>
SweepCounters local_sweep(const P& prog, const partition::Part& part,
                          PartState<P>& s,
                          SweepMode mode = SweepMode::kGaussSeidel,
                          const SweepExec& exec = {},
                          SweepDirection dir = SweepDirection::kAdaptive) {
  if (mode == SweepMode::kSnapshot || exec.threads > 1) {
    return sweep_chunked(prog, part, s, exec, dir);
  }
  return sweep_gauss_seidel(prog, part, s);
}

}  // namespace lazygraph::engine
