// Per-machine runtime state shared by all engines: the paper's vdata[v],
// message[v], deltaMsg[v] tables (Section 3.2) plus scatter-payload staging
// used by the eager engines' master->mirror broadcasts, the active-vertex
// frontiers that make sparse supersteps cheap, and the snapshot sweep's
// scratch, reused across supersteps.
//
// PartState is a slab arena: one cache-line-aligned allocation per simulated
// machine carved into SoA sections (vdata | msg | delta | payload | four
// packed flag bitsets), so an engine run touches one contiguous block per
// machine instead of seven independently-allocated vectors, and copying a
// machine image (recovery guard) is a single memcpy.
//
// Every write to a PartState comes from the machine that owns it: the
// engines' parallel_machines phases move data between machines by value
// (pack -> join -> unpack), so flag writes are plain Bitset set()/reset().
// deposit_msg/deposit_delta (and the fold under them) assert that ownership
// in debug builds whenever the calling thread runs a machine body.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "engine/bitset.hpp"
#include "engine/frontier.hpp"
#include "engine/program.hpp"
#include "engine/wire.hpp"
#include "partition/dgraph.hpp"
#include "sim/cluster.hpp"

namespace lazygraph::engine {

template <VertexProgram P>
struct PartState;

/// Observation hook for correctness harnesses: engines invoke it at every
/// point where the protocol guarantees all replicas of a vertex hold an
/// identical global view (see engine::run for each engine's exact points).
/// Receives the superstep counter and the full per-machine replica state,
/// read-only.
template <VertexProgram P>
using CoherencyInspector = std::function<void(
    std::uint64_t superstep, const std::vector<PartState<P>>& states)>;

/// View into one slab section: vector-shaped (index/size/data/iterate) but
/// non-owning — PartState's slab holds the storage.
template <class T>
struct ArenaSpan {
  T* ptr = nullptr;
  std::size_t count = 0;

  T& operator[](std::size_t i) { return ptr[i]; }
  const T& operator[](std::size_t i) const { return ptr[i]; }
  std::size_t size() const { return count; }
  T* data() { return ptr; }
  const T* data() const { return ptr; }
  T* begin() { return ptr; }
  T* end() { return ptr + count; }
  const T* begin() const { return ptr; }
  const T* end() const { return ptr + count; }
};

struct SweepCounters {
  std::uint64_t work = 0;     // applies + edge traversals
  std::uint64_t applies = 0;  // vertex apply invocations
  /// Candidate slots examined to locate active vertices: num_local per dense
  /// scan, frontier-entry count per sparse consumption. Sparse supersteps
  /// keep this O(frontier) instead of O(num_local).
  std::uint64_t scanned = 0;
  std::uint64_t pushed = 0;   // out-edges scattered along

  SweepCounters& operator+=(const SweepCounters& o) {
    work += o.work;
    applies += o.applies;
    scanned += o.scanned;
    pushed += o.pushed;
    return *this;
  }
};

/// Stage-boundary injection a pipeline hands an engine run: restricts the
/// init-message placement scan to a worklist and/or seeds vdata from an
/// upstream stage's converged table. Built by engine::run from RunConfig's
/// initial_frontier / initial_state (the engines never see global ids).
struct InitInjection {
  /// Per-machine ascending lvid lists; when has_frontier, init placement
  /// visits exactly these replicas (in list order) instead of scanning every
  /// local vertex. The deposits a restricted pass makes are a subsequence of
  /// the full scan's in the same order, so results are bit-identical whenever
  /// the frontier covers every vertex the program would initialize.
  std::vector<std::vector<lvid_t>> frontier;
  bool has_frontier = false;
  /// Type-erased `const std::vector<typename P::VData>*` indexed by global
  /// vertex id; when set, make_states seeds every replica from this table
  /// instead of calling prog.init_data.
  const void* vdata = nullptr;
};

/// Per-machine snapshot-sweep scratch, reserved at PartState::resize to its
/// hard bound so steady-state sweeps never grow it. A fixed per-vertex cost
/// like the slab, so SimMetrics::state_bytes leaves it out.
template <class Msg>
struct SweepScratch {
  // Consumed-frontier snapshot (ascending lvids) and its accumulators; at
  // most every local vertex.
  std::vector<lvid_t> snapshot;
  std::vector<Msg> accums;
};

/// Per-machine runtime state on a single slab. Sections (each start aligned
/// to the 64-byte cache line; the slab itself is 64-byte aligned):
///
///   [ vdata: n*VData | msg: n*Msg | delta: n*Msg | payload: n*Scatter |
///     has_msg | has_delta | has_payload | applied : words_for(n)*u64 each ]
///
/// resize() performs the one first-touch allocation (and zero-fill) per
/// machine; every later copy of equal local size reuses the slab as a plain
/// memcpy — which is exactly what the recovery guard's per-coherency-point
/// `image_[m] = now` needs to stay allocation-free.
template <VertexProgram P>
struct PartState {
  static_assert(std::is_trivially_copyable_v<typename P::VData> &&
                    std::is_trivially_copyable_v<typename P::Msg> &&
                    std::is_trivially_copyable_v<typename P::Scatter>,
                "PartState slab sections hold raw bytes");

  ArenaSpan<typename P::VData> vdata;
  ArenaSpan<typename P::Msg> msg;
  Bitset has_msg;
  ArenaSpan<typename P::Msg> delta;
  Bitset has_delta;
  ArenaSpan<typename P::Scatter> payload;
  Bitset has_payload;
  /// Raised once the replica's apply has run at least once this engine run;
  /// collect_touched folds these into the RunResult's StageResult handoff.
  Bitset applied;
  /// Worklists over has_msg / has_delta (see frontier.hpp for the invariant:
  /// every raised flag is reachable through its frontier).
  Frontier frontier;
  Frontier delta_frontier;
  SweepScratch<typename P::Msg> scratch;
  /// The machine whose state this is (set by make_states); the debug
  /// ownership check compares it with sim::current_machine().
  machine_t owner = kInvalidMachine;

  PartState() = default;
  PartState(const PartState& o) { copy_from(o); }
  PartState& operator=(const PartState& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  PartState(PartState&& o) noexcept { move_from(std::move(o)); }
  PartState& operator=(PartState&& o) noexcept {
    if (this != &o) {
      release();
      move_from(std::move(o));
    }
    return *this;
  }
  ~PartState() { release(); }

  void resize(lvid_t n) {
    ensure_slab(n);
    if (slab_bytes_ > 0) std::memset(slab_, 0, slab_bytes_);
    frontier.reset(n);
    delta_frontier.reset(n);
    // Pre-size the sweep scratch to its hard bound: the snapshot holds each
    // pending lvid once. (The Gauss-Seidel sweep needs no scratch: it walks
    // the has_msg words in place.)
    scratch.snapshot.reserve(n);
    scratch.accums.reserve(n);
  }

  /// Active-message count via bitset popcount (O(n/64)); the debug build
  /// cross-checks it against the linear flag scan it replaced.
  std::uint64_t count_msgs() const {
    const std::uint64_t c = has_msg.count();
#ifndef NDEBUG
    std::uint64_t linear = 0;
    for (std::size_t v = 0; v < has_msg.size(); ++v) {
      linear += has_msg[v] ? 1 : 0;
    }
    assert(linear == c && "count_msgs: popcount disagrees with flag scan");
#endif
    return c;
  }

  /// Resident bytes of this machine's slab (SimMetrics::state_bytes sums
  /// these across machines).
  std::size_t slab_bytes() const { return slab_bytes_; }

  /// Scribbles 0xAB over every section — fault injection marks a dead
  /// machine's state unmistakably invalid until recovery restores it.
  void poison() {
    if (slab_ != nullptr) std::memset(slab_, 0xAB, slab_bytes_);
  }

 private:
  static constexpr std::size_t kAlign = 64;

  static constexpr std::size_t align_up(std::size_t x) {
    return (x + kAlign - 1) & ~(kAlign - 1);
  }

  struct Layout {
    std::size_t vdata = 0, msg = 0, delta = 0, payload = 0;
    std::size_t flags[4] = {0, 0, 0, 0};  // has_msg, has_delta, has_payload,
                                          // applied word sections
    std::size_t total = 0;
  };

  static Layout layout_for(lvid_t n) {
    Layout l;
    std::size_t off = 0;
    const auto section = [&](std::size_t bytes) {
      const std::size_t at = off;
      off = align_up(off + bytes);
      return at;
    };
    l.vdata = section(n * sizeof(typename P::VData));
    l.msg = section(n * sizeof(typename P::Msg));
    l.delta = section(n * sizeof(typename P::Msg));
    l.payload = section(n * sizeof(typename P::Scatter));
    const std::size_t flag_bytes = Bitset::words_for(n) * sizeof(std::uint64_t);
    for (std::size_t f = 0; f < 4; ++f) l.flags[f] = section(flag_bytes);
    l.total = off;
    return l;
  }

  /// (Re)allocates the slab when the layout's byte size changes and points
  /// every view at its section. Never touches the slab contents.
  void ensure_slab(lvid_t n) {
    const Layout l = layout_for(n);
    if (l.total != slab_bytes_) {
      release();
      if (l.total > 0) {
        slab_ = ::operator new(l.total, std::align_val_t{kAlign});
      }
      slab_bytes_ = l.total;
    }
    n_ = n;
    auto* base = static_cast<std::byte*>(slab_);
    vdata = {reinterpret_cast<typename P::VData*>(base + l.vdata), n};
    msg = {reinterpret_cast<typename P::Msg*>(base + l.msg), n};
    delta = {reinterpret_cast<typename P::Msg*>(base + l.delta), n};
    payload = {reinterpret_cast<typename P::Scatter*>(base + l.payload), n};
    has_msg.attach(reinterpret_cast<std::uint64_t*>(base + l.flags[0]), n);
    has_delta.attach(reinterpret_cast<std::uint64_t*>(base + l.flags[1]), n);
    has_payload.attach(reinterpret_cast<std::uint64_t*>(base + l.flags[2]), n);
    applied.attach(reinterpret_cast<std::uint64_t*>(base + l.flags[3]), n);
  }

  /// Copies the semantic state: slab (reusing the allocation when sizes
  /// match) and frontiers. The sweep scratch is deliberately NOT copied —
  /// it is pooled workspace whose contents are dead between sweeps, and
  /// keeping the destination's high-water buffers preserves the
  /// zero-allocation steady state across guard-image snapshots.
  void copy_from(const PartState& o) {
    ensure_slab(o.n_);
    if (slab_bytes_ > 0) std::memcpy(slab_, o.slab_, slab_bytes_);
    frontier = o.frontier;
    delta_frontier = o.delta_frontier;
    owner = o.owner;
  }

  void move_from(PartState&& o) noexcept {
    slab_ = std::exchange(o.slab_, nullptr);
    slab_bytes_ = std::exchange(o.slab_bytes_, 0);
    n_ = std::exchange(o.n_, 0);
    vdata = std::exchange(o.vdata, {});
    msg = std::exchange(o.msg, {});
    delta = std::exchange(o.delta, {});
    payload = std::exchange(o.payload, {});
    has_msg = std::exchange(o.has_msg, {});
    has_delta = std::exchange(o.has_delta, {});
    has_payload = std::exchange(o.has_payload, {});
    applied = std::exchange(o.applied, {});
    frontier = std::move(o.frontier);
    delta_frontier = std::move(o.delta_frontier);
    scratch = std::move(o.scratch);
    owner = std::exchange(o.owner, kInvalidMachine);
  }

  void release() {
    if (slab_ != nullptr) {
      ::operator delete(slab_, std::align_val_t{kAlign});
    }
    slab_ = nullptr;
    slab_bytes_ = 0;
  }

  void* slab_ = nullptr;
  std::size_t slab_bytes_ = 0;
  lvid_t n_ = 0;
};

template <VertexProgram P>
VertexInfo vertex_info(const partition::Part& part, lvid_t v) {
  return {part.gids[v], part.global_out_degree[v],
          part.global_total_degree[v]};
}

namespace detail {

/// Owner-only sum-combine of `m` into slot v of (vals, flags), one of s's
/// message/delta sections; returns whether the flag went 0->1. Touches no
/// frontier: callers that record activations go through deposit_msg /
/// deposit_delta, and the sync gather's folds are consumed by its apply.
/// Debug builds check the owner-computes contract here: inside a machine
/// body only that machine's state is written (serial code outside every
/// body — the serial engines, setup, tests — is exempt).
template <VertexProgram P>
bool fold_owned(const P& prog, [[maybe_unused]] const PartState<P>& s,
                ArenaSpan<typename P::Msg>& vals, Bitset& flags, lvid_t v,
                const typename P::Msg& m) {
  assert((sim::current_machine() == kInvalidMachine ||
          s.owner == sim::current_machine()) &&
         "PartState written from another machine's body");
  if (flags[v]) {
    vals[v] = prog.sum(vals[v], m);
    return false;
  }
  vals[v] = m;
  flags.set(v);
  return true;
}

}  // namespace detail

/// Sum-combines `m` into the message slot of `v`, recording fresh
/// activations in the frontier; returns whether it was one. Owner-only
/// (the frontier is not thread-safe), so the flag write is plain.
template <VertexProgram P>
bool deposit_msg(const P& prog, PartState<P>& s, lvid_t v,
                 const typename P::Msg& m) {
  const bool fresh = detail::fold_owned(prog, s, s.msg, s.has_msg, v, m);
  if (fresh) s.frontier.activate(v);
  return fresh;
}

/// Delta-slot counterpart of deposit_msg (one-edge-mode accumulation),
/// recording fresh activations in the delta frontier.
template <VertexProgram P>
bool deposit_delta(const P& prog, PartState<P>& s, lvid_t v,
                   const typename P::Msg& m) {
  const bool fresh = detail::fold_owned(prog, s, s.delta, s.has_delta, v, m);
  if (fresh) s.delta_frontier.activate(v);
  return fresh;
}

/// Initializes vdata on every replica: from the injection's per-global-vertex
/// table when one is attached, from prog.init_data otherwise. The slabs are
/// allocated on the calling thread (one arena, so the process footprint does
/// not grow with the pool); the per-machine initialization runs in the
/// cluster's machine bodies, which must be one per machine of dg.
template <VertexProgram P>
std::vector<PartState<P>> make_states(const partition::DistributedGraph& dg,
                                      const P& prog, sim::Cluster& cluster,
                                      const InitInjection* inj = nullptr) {
  require(cluster.num_machines() == dg.num_machines(),
          "make_states: cluster and graph machine counts differ");
  const auto* seed =
      inj && inj->vdata
          ? static_cast<const std::vector<typename P::VData>*>(inj->vdata)
          : nullptr;
  if (seed) {
    require(seed->size() == dg.num_global_vertices(),
            "make_states: initial_state table size != global vertex count");
  }
  std::vector<PartState<P>> states(dg.num_machines());
  for (machine_t m = 0; m < dg.num_machines(); ++m) {
    states[m].resize(dg.part(m).num_local());
    states[m].owner = m;
  }
  cluster.parallel_machines([&](machine_t m) {
    const partition::Part& part = dg.part(m);
    PartState<P>& s = states[m];
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      s.vdata[v] = seed ? (*seed)[part.gids[v]]
                        : prog.init_data(vertex_info<P>(part, v));
    }
  });
  return states;
}

/// Extracts the converged vertex data, one entry per global vertex, read
/// from each vertex's master replica.
template <VertexProgram P>
std::vector<typename P::VData> collect_master_data(
    const partition::DistributedGraph& dg,
    const std::vector<PartState<P>>& states) {
  std::vector<typename P::VData> out(dg.num_global_vertices());
  for (machine_t m = 0; m < dg.num_machines(); ++m) {
    const partition::Part& part = dg.part(m);
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      if (part.master[v] == m) out[part.gids[v]] = states[m].vdata[v];
    }
  }
  return out;
}

/// Cross-stage handoff summary every engine fills at termination, consumed
/// by the plan layer to seed and scope downstream pipeline stages.
struct StageResult {
  /// Global ids (ascending) whose apply ran at least once on any replica —
  /// e.g. the reached set of a traversal, or every vertex a sweep updated.
  std::vector<vid_t> touched;
};

/// Folds the per-replica applied flags into the ascending global touched
/// list (a vertex counts if ANY of its replicas applied).
template <VertexProgram P>
StageResult collect_touched(const partition::DistributedGraph& dg,
                            const std::vector<PartState<P>>& states) {
  std::vector<std::uint8_t> hit(dg.num_global_vertices(), 0);
  for (machine_t m = 0; m < dg.num_machines(); ++m) {
    const partition::Part& part = dg.part(m);
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      if (states[m].applied[v]) hit[part.gids[v]] = 1;
    }
  }
  StageResult out;
  for (vid_t g = 0; g < dg.num_global_vertices(); ++g) {
    if (hit[g]) out.touched.push_back(g);
  }
  return out;
}

/// Result of one engine run. The field set is identical across all four
/// engines, so harnesses never special-case engine kinds.
template <VertexProgram P>
struct RunResult {
  std::vector<typename P::VData> data;  // per global vertex
  bool converged = false;
  std::uint64_t supersteps = 0;
  /// Stage handoff for pipeline composition (see StageResult).
  StageResult handoff;
  /// Snapshot of the cluster's metrics at run end (the run may share the
  /// cluster with later runs; this freezes its own totals).
  sim::SimMetrics metrics = {};
  /// The tracer the run recorded into, if one was attached (not owned).
  const sim::Tracer* trace = nullptr;
};

/// Stamps the unified trailing fields every engine fills the same way:
/// master data, the touched-vertex stage handoff, metrics, and the tracer.
template <VertexProgram P>
void finalize_result(RunResult<P>& result, const sim::Cluster& cluster,
                     const partition::DistributedGraph& dg,
                     const std::vector<PartState<P>>& states) {
  result.data = collect_master_data(dg, states);
  result.handoff = collect_touched(dg, states);
  result.metrics = cluster.metrics();
  // Peak resident vertex-state footprint: the slabs are sized once at
  // make_states and never shrink, so the end-of-run sum is the peak.
  result.metrics.state_bytes = 0;
  for (const auto& s : states) result.metrics.state_bytes += s.slab_bytes();
  result.trace = cluster.tracer();
}

}  // namespace lazygraph::engine
