// Packed bitset view over slab-owned words — the storage for PartState's
// has_msg/has_delta/has_payload/applied flags (Galois-style flag ops).
//
// The bitset does not own memory: PartState carves `words_for(n)` 64-bit
// words per flag set out of its slab and attach()es views.
//
// Write contract: set(i)/reset(i) are the only writes, each a plain
// read-modify-write of the containing word. Every engine phase is
// owner-computes (the writing machine is the only one touching its words
// until the next fork/join barrier; cross-machine data moves by value
// through outboxes), so no flag word is ever shared within a phase and no
// atomics are needed. Reads by the owning machine are plain loads: every
// such reader runs after the writers' fork/join barrier (pool join or serial
// loop), which gives happens-before.
//
// count() is a word-wise popcount — this is what makes count_msgs() O(n/64)
// instead of the old O(n) byte scan — and find_next() walks the words with
// countr_zero, which is how the sweeps visit flagged vertices in ascending
// order without a worklist. Both mask the tail word, so stray bits past
// size() (e.g. from poisoning) never surface.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace lazygraph::engine {

class Bitset {
 public:
  static constexpr std::size_t kWordBits = 64;

  static constexpr std::size_t words_for(std::size_t nbits) {
    return (nbits + kWordBits - 1) / kWordBits;
  }

  Bitset() = default;

  /// Points this view at `words_for(nbits)` slab words. The caller zeroes or
  /// restores the words; attach never touches them.
  void attach(std::uint64_t* words, std::size_t nbits) {
    words_ = words;
    nbits_ = nbits;
  }

  bool operator[](std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }

  /// Owner-only writes: plain RMW of the containing word.
  void set(std::size_t i) { words_[i / kWordBits] |= bit(i); }
  void reset(std::size_t i) { words_[i / kWordBits] &= ~bit(i); }

  std::size_t size() const { return nbits_; }

  /// Smallest flagged index >= i, or size() when there is none. Bits past
  /// size() in the tail word are never returned.
  std::size_t find_next(std::size_t i) const {
    if (i >= nbits_) return nbits_;
    std::size_t w = i / kWordBits;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (i % kWordBits));
    const std::size_t nw = words_for(nbits_);
    while (bits == 0) {
      if (++w == nw) return nbits_;
      bits = words_[w];
    }
    const std::size_t at = w * kWordBits + std::countr_zero(bits);
    return at < nbits_ ? at : nbits_;
  }

  /// Popcount over the words; masks the tail word so stray bits past size()
  /// (e.g. from poisoning) never leak into counts.
  std::uint64_t count() const {
    const std::size_t nw = words_for(nbits_);
    if (nw == 0) return 0;
    std::uint64_t c = 0;
    for (std::size_t w = 0; w + 1 < nw; ++w) c += std::popcount(words_[w]);
    const std::size_t tail = nbits_ % kWordBits;
    const std::uint64_t mask =
        tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
    return c + std::popcount(words_[nw - 1] & mask);
  }

  bool any() const {
    const std::size_t nw = words_for(nbits_);
    if (nw == 0) return false;
    for (std::size_t w = 0; w + 1 < nw; ++w)
      if (words_[w] != 0) return true;
    const std::size_t tail = nbits_ % kWordBits;
    const std::uint64_t mask =
        tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
    return (words_[nw - 1] & mask) != 0;
  }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    if (a.nbits_ != b.nbits_) return false;
    for (std::size_t i = 0; i < a.nbits_; ++i)
      if (a[i] != b[i]) return false;
    return true;
  }

 private:
  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % kWordBits);
  }

  std::uint64_t* words_ = nullptr;
  std::size_t nbits_ = 0;
};

}  // namespace lazygraph::engine
