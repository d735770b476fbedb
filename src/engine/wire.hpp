// Compressed wire format for replica-coherency traffic.
//
// A delta exchange ships batches of (gid, payload) records between machine
// pairs. Within one stream the gids are strictly ascending (every
// coordinator visits its masters in ascending lvid order, and lvids are
// dense in ascending gid order — see partition/dgraph.cpp), so the batch
// encodes as
//
//   frame:   varint(count) [+ presence bitmap, ceil(count/8) bytes, when the
//            stream carries optional per-record ride-along payloads]
//   gids:    delta-varint — varint(gid[0]), varint(gid[1]-gid[0]), ...
//   payload: count * sizeof(T), dense (plus the flagged ride-alongs)
//
// versus the uncompressed fallback of kUncompressedHeaderBytes (an 8-byte
// routing header: vertex id + flags) + payload per record. A 32-bit gid
// delta-varint costs 1-5 bytes, so the codec is strictly smaller whenever a
// stream is non-empty; SimMetrics tracks both sides as exchange_bytes_raw /
// exchange_bytes_wire.
//
// Traffic that genuinely cannot batch (the async engines' fine-grained
// per-message sends) is charged as single-record frames via
// single_record_bytes(); recovery's guard images and delta logs keep the
// uncompressed fallback (they model state capture, not the exchange path).
//
// encode_batch/decode_batch materialize real buffers (property-tested for
// exact round-trips); DeltaSizeCoder accumulates the identical byte count
// without materializing anything — that is what the engines charge.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace lazygraph::engine {

/// The uncompressed fallback path's per-record routing header (vertex id +
/// flags). Every flat `wire_bytes<T>()` charge — and the raw side of the
/// raw-vs-wire counters — uses this constant.
inline constexpr std::uint64_t kUncompressedHeaderBytes = 8;

/// Uncompressed-fallback wire size of one record carrying a T.
template <class T>
constexpr std::uint64_t wire_bytes() {
  return kUncompressedHeaderBytes + sizeof(T);
}

namespace wire {

/// Bytes of the LEB128 varint encoding of v (1..10).
constexpr std::uint32_t varint_size(std::uint64_t v) {
  std::uint32_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline std::uint64_t get_varint(const std::uint8_t*& p,
                                const std::uint8_t* end) {
  std::uint64_t v = 0;
  std::uint32_t shift = 0;
  for (;;) {
    require(p != end, "wire: truncated varint");
    require(shift < 64, "wire: varint overflows 64 bits");
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

/// Wire bytes of a one-record frame (the fine-grained path: one message, one
/// vertex): varint(count=1) + varint(gid) + payload. Strictly below the
/// uncompressed fallback for 32-bit gids (1 + <=5 < kUncompressedHeaderBytes).
inline std::uint64_t single_record_bytes(vid_t gid,
                                         std::size_t payload_bytes) {
  return 1 + varint_size(gid) + payload_bytes;
}

/// Size-only accumulator for one stream: feeds the identical records an
/// encode_batch call would see and totals the exact encoded size, without
/// building the buffer. `copies` multiplies the record body (gid varint +
/// payload) for records relayed to several receivers; the frame header is
/// charged once per non-empty stream, by total_bytes().
class DeltaSizeCoder {
 public:
  /// Adds one record. gids must be strictly ascending across calls.
  void add(vid_t gid, std::size_t payload_bytes, std::uint64_t copies = 1) {
    body_ += (varint_size(gid - prev_) + payload_bytes) * copies;
    prev_ = gid;
    ++count_;
  }

  std::uint64_t count() const { return count_; }

  /// Exact encoded stream size: varint(count) frame + record bodies.
  /// An empty stream costs nothing (it is never sent).
  std::uint64_t total_bytes() const {
    return count_ == 0 ? 0 : varint_size(count_) + body_;
  }

  /// Stream size when each record carries an optional ride-along payload
  /// (the eager broadcast's scatter piggyback): the frame additionally holds
  /// a presence bitmap of ceil(count/8) bytes; flagged payload bytes must
  /// have been folded into `payload_bytes` by the caller.
  std::uint64_t total_bytes_with_flag_bitmap() const {
    return count_ == 0 ? 0 : total_bytes() + (count_ + 7) / 8;
  }

  void reset() { *this = DeltaSizeCoder{}; }

 private:
  std::uint64_t body_ = 0;
  std::uint64_t count_ = 0;
  vid_t prev_ = 0;
};

/// Encodes one (gid, payload) batch. Requires strictly ascending gids;
/// rejects non-monotone input. An empty batch encodes to zero bytes.
template <class T>
std::vector<std::uint8_t> encode_batch(
    const std::vector<std::pair<vid_t, T>>& batch) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire: payloads ship as raw bytes");
  std::vector<std::uint8_t> out;
  if (batch.empty()) return out;
  put_varint(out, batch.size());
  vid_t prev = 0;
  bool first = true;
  for (const auto& [gid, payload] : batch) {
    (void)payload;
    require(first || gid > prev, "wire: batch gids must be strictly ascending");
    put_varint(out, gid - prev);
    prev = gid;
    first = false;
  }
  const std::size_t gid_end = out.size();
  out.resize(gid_end + batch.size() * sizeof(T));
  std::uint8_t* p = out.data() + gid_end;
  for (const auto& [gid, payload] : batch) {
    (void)gid;
    std::memcpy(p, &payload, sizeof(T));
    p += sizeof(T);
  }
  return out;
}

/// Inverse of encode_batch (exact round-trip). Rejects truncated buffers.
template <class T>
std::vector<std::pair<vid_t, T>> decode_batch(
    const std::vector<std::uint8_t>& buf) {
  std::vector<std::pair<vid_t, T>> out;
  if (buf.empty()) return out;
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  const std::uint64_t count = get_varint(p, end);
  out.reserve(count);
  vid_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t delta = get_varint(p, end);
    prev += static_cast<vid_t>(delta);
    out.emplace_back(prev, T{});
  }
  require(static_cast<std::size_t>(end - p) == count * sizeof(T),
          "wire: payload block size mismatch");
  for (auto& [gid, payload] : out) {
    (void)gid;
    std::memcpy(&payload, p, sizeof(T));
    p += sizeof(T);
  }
  return out;
}

}  // namespace wire
}  // namespace lazygraph::engine
