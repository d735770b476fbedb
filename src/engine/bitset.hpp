// Packed bitset view over slab-owned words — the storage for PartState's
// has_msg/has_delta/has_payload/applied flags (Galois-style flag ops).
//
// The bitset does not own memory: PartState carves `words_for(n)` 64-bit
// words per flag set out of its slab and attach()es views. Writes go through
// a proxy that RMWs the containing word with relaxed std::atomic_ref ops:
// parallel sweep chunks set/clear flags of *distinct* vertices concurrently,
// and distinct bits of one word commute under fetch_or/fetch_and — so the
// result is bit-identical to the serial order regardless of interleaving.
// Reads by the owning machine are plain loads: every such reader runs after
// the writers' fork/join barrier (pool join or serial loop), which gives
// happens-before. A read from another machine's phase body uses load(): the
// owner may be RMW-ing other bits of the same word at that moment.
//
// count() is a word-wise popcount — this is what makes count_msgs() O(n/64)
// instead of the old O(n) byte scan.
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

  /// Write proxy: `flags[v] = 1` / `flags[v] = 0` as atomic fetch_or /
  /// fetch_and on the containing word (relaxed; distinct-bit ops commute).
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

  Ref operator[](std::size_t i) {
    return Ref(words_ + i / kWordBits,
               std::uint64_t{1} << (i % kWordBits));
  }

  bool operator[](std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }

  /// Relaxed atomic read of flag i, for readers running concurrently with
  /// the owner's writes to *other* bits of the word (cross-machine reads).
  bool load(std::size_t i) const {
    std::atomic_ref<std::uint64_t> word(words_[i / kWordBits]);
    return (word.load(std::memory_order_relaxed) >> (i % kWordBits)) & 1;
  }

  std::size_t size() const { return nbits_; }

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
  std::uint64_t* words_ = nullptr;
  std::size_t nbits_ = 0;
};

}  // namespace lazygraph::engine
