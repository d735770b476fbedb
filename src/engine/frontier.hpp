// Active-vertex frontier: the sparse/dense worklist behind every engine's
// sweep. Tracks which local replicas hold a pending message (or delta) so
// sparse supersteps touch O(frontier) vertices instead of scanning all
// O(num_local) flag slots.
//
// Representation switch (PowerGraph-style): activations are recorded in a
// sparse lvid list while it holds at most `threshold` entries; the first
// activation that would push past the threshold instead degrades the
// frontier to "dense" — the flag array itself *is* the frontier and
// consumers fall back to walking it. The boundary is exact: a frontier can
// reach exactly `threshold` sparse entries and stay sparse; entry number
// threshold+1 flips dense (and is recorded only in the flags, like every
// activation after it). `clear()` (called when a sweep fully consumes the
// frontier) resets to sparse. Dense consumers walk the flag words
// (Bitset::find_next) rather than testing every slot. A frontier nobody
// consumes (lazy-vertex's message frontier) just saturates to dense.
//
// Invariants the engines maintain:
//   - flag set  =>  the lvid is in the sparse list, or the frontier is dense
//     (every flag-setting path goes through deposit_msg/deposit_delta, which
//     activate on the 0->1 transition).
//   - The converse does NOT hold: sparse entries may be stale (their flag was
//     consumed since) or duplicated (consumed then re-activated). Consumers
//     must guard on the flag, and dedup (sort_unique) where double-visiting
//     would double work.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/bitset.hpp"
#include "util/common.hpp"

namespace lazygraph::engine {

class Frontier {
 public:
  /// Re-arms the frontier for a vertex set of size `n`: sparse and empty.
  /// The density threshold scales with n (but stays useful for tiny parts).
  void reset(lvid_t n) {
    n_ = n;
    threshold_ = std::max<std::size_t>(64, static_cast<std::size_t>(n) / 8);
    list_.clear();
    // The list never exceeds the threshold (the crossing add flips dense
    // instead), so this one reserve makes every later add allocation-free.
    list_.reserve(threshold_);
    dense_ = false;
  }

  /// Hard capacity bound of the sparse list (the density threshold).
  std::size_t sparse_capacity() const { return threshold_; }

  bool is_dense() const { return dense_; }

  /// Records a fresh activation (callers only invoke this on the flag's 0->1
  /// transition). The list may fill to exactly threshold_ entries; the
  /// activation that would push past it instead drops the list and goes
  /// dense — that activation and all later ones are carried by the flags
  /// alone from then on.
  void activate(lvid_t v) {
    if (dense_) return;
    if (list_.size() >= threshold_) {
      dense_ = true;
      list_.clear();
      return;
    }
    list_.push_back(v);
  }

  /// Marks the frontier fully consumed: empties the list and, because every
  /// flag is down, a dense frontier becomes sparse again.
  void clear() {
    list_.clear();
    dense_ = false;
  }

  /// Sorts and dedups the sparse entry list (no-op when dense). Consumers
  /// that need ascending visit order call this before iterating.
  void sort_unique() {
    if (dense_) return;
    std::sort(list_.begin(), list_.end());
    list_.erase(std::unique(list_.begin(), list_.end()), list_.end());
  }

  /// The sparse entry list; meaningful only while !is_dense(). Exposed
  /// mutably for the Gauss-Seidel sweep's in-place carry compaction.
  std::vector<lvid_t>& entries() { return list_; }
  const std::vector<lvid_t>& entries() const { return list_; }

  /// Calls fn(v) for every v whose flag is up: an ascending word walk of
  /// the flags (Bitset::find_next) when dense, an entry walk when sparse.
  /// Sparse duplicates reach fn once per live entry — callers dedup
  /// downstream where that matters. Returns the number of candidate slots
  /// examined (the "scan work" SweepCounters report): num_local when dense,
  /// the entry count when sparse.
  template <class Fn>
  std::size_t for_each_flagged(const Bitset& flags, Fn&& fn) const {
    if (dense_) {
      for (std::size_t v = flags.find_next(0); v < n_;
           v = flags.find_next(v + 1)) {
        fn(static_cast<lvid_t>(v));
      }
      return n_;
    }
    for (const lvid_t v : list_) {
      if (flags[v]) fn(v);
    }
    return list_.size();
  }

 private:
  lvid_t n_ = 0;
  std::size_t threshold_ = 64;
  bool dense_ = false;
  std::vector<lvid_t> list_;
};

}  // namespace lazygraph::engine
