// Batched multi-source execution: pack k single-source queries of one
// program family into a single engine run via lane-indexed SoA vertex state.
//
// BatchedProgram<P, K> wraps K instances of a VertexProgram P ("lanes") into
// one program whose VData / Msg / Scatter are per-lane arrays with lane
// occupancy masks. One sweep then serves the whole batch: the engine's
// frontier is the union of the per-lane frontiers (a vertex is active iff
// any lane has a pending message for it), and a lane whose frontier empties
// simply stops contributing masked entries — it drops out of the delta
// exchange while the batch keeps running.
//
// Bit-identity contract (tests/test_serve.cpp + testing::check_batch_scenario
// hold it): every deposit a batched sweep makes for lane i is the same
// deposit the solo run of lane i's program would make, in the same order —
// the sweep visits vertices in the identical ascending order and the lane
// masks make sum/apply/scatter act lane-wise. Under the sync engine the
// per-lane trajectory is therefore exactly the solo trajectory (lockstep
// supersteps); under the lazy engines the *schedule* may interleave lanes
// differently (Stage-1 budgets and interval decisions see union activity),
// but the converged per-lane state is still bit-identical to the solo run
// for the served families (min/max semilattices and the integer k-core
// fixpoint are schedule-independent; see DESIGN.md §5i).
//
// Lanes [width, K) are padding: a batch narrower than the compiled width
// never initializes them (no init messages, masks stay 0), so they cost
// only the wasted array slots, never compute or convergence steps. This
// guard matters for programs whose init activates every vertex (k-core).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "engine/program.hpp"
#include "engine/state.hpp"

namespace lazygraph::serve {

/// Hard ceiling on lanes per batch (the widest compiled BatchedProgram).
inline constexpr std::size_t kMaxBatchLanes = 16;

/// A lane-masked array of per-lane values: vals[i] is meaningful iff
/// has[i]. Used for both messages and scatter payloads. Value-initialized
/// members make `Msg total{};` in the engines' fold loops an empty batch.
template <class T, std::size_t K>
struct LaneMsg {
  std::array<T, K> vals{};
  std::array<std::uint8_t, K> has{};

  bool any() const {
    for (std::size_t i = 0; i < K; ++i) {
      if (has[i]) return true;
    }
    return false;
  }
};

/// K lanes of P fused into one VertexProgram. Lane i of every callback is
/// exactly P's callback on lanes[i]; lanes never interact.
template <engine::VertexProgram P, std::size_t K>
struct BatchedProgram {
  using VData = std::array<typename P::VData, K>;
  using Msg = LaneMsg<typename P::Msg, K>;
  using Scatter = LaneMsg<typename P::Scatter, K>;
  // Lane-wise Sum preserves P's algebra: idempotence / the inverse act
  // independently per occupied lane.
  static constexpr bool kIdempotent = P::kIdempotent;
  static constexpr bool kHasInverse = P::kHasInverse;

  std::array<P, K> lanes{};
  /// Live lanes; lanes [width, K) are padding and never initialize.
  std::size_t width = K;

  /// `width` clamped to K: the lane loops' bound, which also lets the
  /// compiler prove every lane index in range.
  std::size_t live() const { return std::min(width, K); }

  VData init_data(const engine::VertexInfo& info) const {
    VData v{};
    for (std::size_t i = 0; i < live(); ++i) v[i] = lanes[i].init_data(info);
    return v;
  }

  std::optional<Msg> init_vertex_message(
      const engine::VertexInfo& info) const {
    Msg m{};
    bool any = false;
    for (std::size_t i = 0; i < live(); ++i) {
      if (const auto x = lanes[i].init_vertex_message(info)) {
        m.vals[i] = *x;
        m.has[i] = 1;
        any = true;
      }
    }
    if (!any) return std::nullopt;
    return m;
  }

  std::optional<Msg> init_edge_message(const engine::VertexInfo& src) const {
    Msg m{};
    bool any = false;
    for (std::size_t i = 0; i < live(); ++i) {
      if (const auto x = lanes[i].init_edge_message(src)) {
        m.vals[i] = *x;
        m.has[i] = 1;
        any = true;
      }
    }
    if (!any) return std::nullopt;
    return m;
  }

  Msg sum(Msg a, const Msg& b) const {
    for (std::size_t i = 0; i < K; ++i) {
      if (!b.has[i]) continue;
      if (a.has[i]) {
        a.vals[i] = lanes[i].sum(a.vals[i], b.vals[i]);
      } else {
        a.vals[i] = b.vals[i];
        a.has[i] = 1;
      }
    }
    return a;
  }

  /// Lane-wise Inverse (instantiated only when P::kHasInverse — the engines
  /// reach it through without_own's `if constexpr`). A lane the own-side
  /// never deposited passes through untouched, mirroring the solo exchange
  /// where that replica had no delta at all.
  Msg inverse(Msg total, const Msg& own) const {
    for (std::size_t i = 0; i < K; ++i) {
      if (total.has[i] && own.has[i]) {
        total.vals[i] = lanes[i].inverse(total.vals[i], own.vals[i]);
      }
    }
    return total;
  }

  std::optional<Scatter> apply(VData& v, const engine::VertexInfo& info,
                               Msg accum) const {
    Scatter out{};
    bool any = false;
    for (std::size_t i = 0; i < K; ++i) {
      if (!accum.has[i]) continue;
      if (const auto s = lanes[i].apply(v[i], info, accum.vals[i])) {
        out.vals[i] = *s;
        out.has[i] = 1;
        any = true;
      }
    }
    if (!any) return std::nullopt;  // every occupied lane converged here
    return out;
  }

  Msg scatter(const Scatter& s, const engine::VertexInfo& src,
              float edge_weight) const {
    Msg m{};
    for (std::size_t i = 0; i < K; ++i) {
      if (!s.has[i]) continue;
      m.vals[i] = lanes[i].scatter(s.vals[i], src, edge_weight);
      m.has[i] = 1;
    }
    return m;
  }
};

/// Which lanes still have pending work (a raised msg or delta mask bit on
/// any replica) — the per-lane liveness probe the serve layer's coherency
/// inspector runs at each coherency point. A lane that converged contributes
/// no raised bits, so it reads as dropped out. Only flagged slots are read:
/// the walk skips clear has_msg/has_delta words whole (Bitset::find_next).
template <engine::VertexProgram P, std::size_t K>
std::array<std::uint8_t, K> lanes_pending(
    const std::vector<engine::PartState<BatchedProgram<P, K>>>& states) {
  std::array<std::uint8_t, K> live{};
  const auto fold = [&live](const engine::Bitset& flags, const auto& slots) {
    for (std::size_t v = flags.find_next(0); v < flags.size();
         v = flags.find_next(v + 1)) {
      for (std::size_t i = 0; i < K; ++i) live[i] |= slots[v].has[i];
    }
  };
  for (const auto& s : states) {
    fold(s.has_msg, s.msg);
    fold(s.has_delta, s.delta);
  }
  return live;
}

/// Solo-run counterpart of lanes_pending: does the (plain, single-lane)
/// program still have pending work anywhere? Same definition restricted to
/// one lane, so batched and solo liveness counts are directly comparable.
template <engine::VertexProgram P>
bool any_pending(const std::vector<engine::PartState<P>>& states) {
  for (const auto& s : states) {
    if (s.has_msg.any() || s.has_delta.any()) return true;
  }
  return false;
}

}  // namespace lazygraph::serve
