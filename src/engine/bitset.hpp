// Packed flag bitsets (Galois-style flag ops). Bitset is a view over words
// it does not own: PartState carves `words_for(n)` 64-bit words per flag set
// (has_msg/has_delta/has_payload/applied) out of its slab and attach()es
// views. OwnedBits owns its words: every engine's per-machine mark set, the
// one form of "visit each marked master once, in ascending lvid order".
//
// Write contract: set(i)/reset(i)/drain() are the only writes, each a plain
// read-modify-write of the containing word. Every engine phase is
// owner-computes (the writing machine is the only one touching its words
// until the next fork/join barrier; cross-machine data moves by value
// through outboxes), so no flag word is ever shared within a phase and no
// atomics are needed. Reads by the owning machine are plain loads: every
// such reader runs after the writers' fork/join barrier (pool join or serial
// loop), which gives happens-before.
//
// count() is a word-wise popcount — this is what makes count_msgs() O(n/64)
// instead of the old O(n) byte scan. The two ascending walks, find_next()
// (re-reads words: a bit set ahead of the cursor joins the walk) and drain()
// (zeroes each word as it takes it), use countr_zero. All reads mask the
// tail word, so stray bits past size() (e.g. from poisoning) never surface.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

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
    return c + std::popcount(words_[nw - 1] & tail_mask());
  }

  bool any() const {
    const std::size_t nw = words_for(nbits_);
    if (nw == 0) return false;
    for (std::size_t w = 0; w + 1 < nw; ++w)
      if (words_[w] != 0) return true;
    return (words_[nw - 1] & tail_mask()) != 0;
  }

  /// Calls fn(i) for every flagged i, ascending, and leaves the set empty.
  /// Each word is zeroed before its bits are visited, so fn must not set
  /// bits here (one set in a word already taken would be missed).
  template <class Fn>
  void drain(Fn&& fn) {
    const std::size_t nw = words_for(nbits_);
    for (std::size_t w = 0; w < nw; ++w) {
      std::uint64_t bits = std::exchange(words_[w], 0);
      if (w + 1 == nw) bits &= tail_mask();
      for (; bits != 0; bits &= bits - 1) {
        fn(w * kWordBits + std::countr_zero(bits));
      }
    }
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

  /// The live bits of the last word.
  std::uint64_t tail_mask() const {
    const std::size_t tail = nbits_ % kWordBits;
    return tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  }

  std::uint64_t* words_ = nullptr;
  std::size_t nbits_ = 0;
};

/// `n` owned bits, all clear, behind the Bitset view. Movable (a moved
/// vector keeps its buffer, so the view stays valid; the source is left
/// empty) but not copyable, so two sets never share words.
class OwnedBits : public Bitset {
 public:
  OwnedBits() = default;
  explicit OwnedBits(std::size_t n) : words_(words_for(n), 0) {
    Bitset::attach(words_.data(), n);
  }
  OwnedBits(OwnedBits&& o) noexcept { *this = std::move(o); }
  OwnedBits& operator=(OwnedBits&& o) noexcept {
    Bitset::operator=(std::exchange<Bitset>(o, {}));
    words_ = std::move(o.words_);
    return *this;
  }
  OwnedBits(const OwnedBits&) = delete;
  OwnedBits& operator=(const OwnedBits&) = delete;

 private:
  using Bitset::attach;  // the view always covers words_

  std::vector<std::uint64_t> words_;
};

}  // namespace lazygraph::engine
