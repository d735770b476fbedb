// Common small types and helpers shared across the LazyGraph library.
#pragma once

#include <cstdint>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

namespace lazygraph {

/// Global vertex identifier (dense, 0-based).
using vid_t = std::uint32_t;
/// Local (per-machine) vertex identifier.
using lvid_t = std::uint32_t;
/// Machine identifier inside a simulated cluster.
using machine_t = std::uint32_t;

inline constexpr vid_t kInvalidVid = std::numeric_limits<vid_t>::max();
inline constexpr lvid_t kInvalidLvid = std::numeric_limits<lvid_t>::max();
inline constexpr machine_t kInvalidMachine =
    std::numeric_limits<machine_t>::max();

/// Throws std::invalid_argument with `msg` when `cond` is false.
/// Used for public-API argument validation (cheap, always on).
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Literal-message overload: a passing check builds no std::string, so
/// hot-path checks (the wire codec's per-record validation) allocate nothing.
inline void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Integer ceil-division for non-negative values.
template <class T>
constexpr T ceil_div(T a, T b) {
  return (a + b - 1) / b;
}

}  // namespace lazygraph
