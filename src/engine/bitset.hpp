// Packed bitset view over slab-owned words — the storage for PartState's
// has_msg/has_delta/has_payload/applied flags (Galois-style flag ops).
//
// The bitset does not own memory: PartState carves `words_for(n)` 64-bit
// words per flag set out of its slab and attach()es views.
//
// Two write paths, one contract:
//   - set(i)/reset(i) are plain read-modify-writes of the containing word.
//     They are for owner-only phases: the writing machine is the only one
//     touching these words until the next fork/join barrier (every deposit
//     that records a frontier activation, the sweeps' flag clears, the
//     applied marks).
//   - `flags[i] = b` goes through a proxy that RMWs the word with relaxed
//     std::atomic_ref fetch_or/fetch_and. It is for phases where another
//     machine's body touches the same words at the same time (the sync
//     gather's own-slot folds that other masters read). Distinct bits of
//     one word commute under fetch_or/fetch_and, so the result is
//     bit-identical to the serial order regardless of interleaving.
// Reads by the owning machine are plain loads: every such reader runs after
// the writers' fork/join barrier (pool join or serial loop), which gives
// happens-before. A read in a phase where another machine's body may RMW
// other bits of the same word uses load().
//
// count() is a word-wise popcount — this is what makes count_msgs() O(n/64)
// instead of the old O(n) byte scan — and find_next() walks the words with
// countr_zero, which is how the sweeps visit flagged vertices in ascending
// order without a worklist. Both mask the tail word, so stray bits past
// size() (e.g. from poisoning) never surface.
#pragma once

#include <atomic>
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

  /// Shared-phase write proxy: `flags[v] = 1` / `flags[v] = 0` as atomic
  /// fetch_or / fetch_and on the containing word (relaxed; distinct-bit ops
  /// commute). Owner-only phases use set()/reset() instead.
  class Ref {
   public:
    Ref(std::uint64_t* word, std::uint64_t mask) : word_(word), mask_(mask) {}

    Ref& operator=(bool b) {
      std::atomic_ref<std::uint64_t> w(*word_);
      if (b) {
        w.fetch_or(mask_, std::memory_order_relaxed);
      } else {
        w.fetch_and(~mask_, std::memory_order_relaxed);
      }
      return *this;
    }

    operator bool() const { return (*word_ & mask_) != 0; }

   private:
    std::uint64_t* word_;
    std::uint64_t mask_;
  };

  Ref operator[](std::size_t i) { return Ref(words_ + i / kWordBits, bit(i)); }

  bool operator[](std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }

  /// Relaxed atomic read of flag i, for readers running concurrently with
  /// another machine's proxy writes to *other* bits of the word.
  bool load(std::size_t i) const {
    std::atomic_ref<std::uint64_t> word(words_[i / kWordBits]);
    return (word.load(std::memory_order_relaxed) >> (i % kWordBits)) & 1;
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
