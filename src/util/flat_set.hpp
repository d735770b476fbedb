// Insert-only open-addressing set of 64-bit keys, for the setup path's
// edge deduplication (Graph::symmetrized / simplified, gen::chung_lu).
//
// The table is sized once from a known bound on distinct keys: capacity is
// the smallest power of two holding that many keys at load <= 0.5, so it
// never rehashes and a probe run stays short. Slots are probed linearly from
// mix64(key). ~0 (kEmpty) marks a free slot and can never be stored; for
// the (src << 32 | dst) edge keys it is the self-loop (2^32-1, 2^32-1),
// which every caller drops before inserting.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace lazygraph {

class FlatU64Set {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// A set that may hold up to `max_keys` distinct keys.
  explicit FlatU64Set(std::size_t max_keys)
      : slots_(std::bit_ceil(2 * max_keys), kEmpty),
        mask_(slots_.size() - 1),
        max_keys_(max_keys) {}

  /// Inserts `key` (never kEmpty); true iff it was not already present.
  bool insert(std::uint64_t key) {
    assert(key != kEmpty);
    for (std::size_t i = mix64(key) & mask_;; i = (i + 1) & mask_) {
      const std::uint64_t slot = slots_[i];
      if (slot == key) return false;
      if (slot == kEmpty) {
        if (size_ == max_keys_) {
          throw std::length_error("FlatU64Set: more keys than sized for");
        }
        slots_[i] = key;
        ++size_;
        return true;
      }
    }
  }

 private:
  std::vector<std::uint64_t> slots_;
  std::size_t mask_;
  std::size_t size_ = 0;
  std::size_t max_keys_;
};

}  // namespace lazygraph
