// Minimal command-line option parser for examples and bench drivers.
// Supports --key=value and --flag forms; anything else is a positional arg,
// which reject_unknown refuses (so `--algo sssp` cannot silently mean a bare
// --algo plus a stray "sssp").
// A bare --flag is present with no value: get/get_int/get_double return
// their default for it, get_bool returns true. A value get_int/get_double/
// get_bool cannot parse completely, or that falls outside the accepted
// range, throws OptionError naming the flag (tools turn it into a non-zero
// exit), as does a flag outside the tool's accepted list (reject_unknown).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace lazygraph {

/// A malformed or out-of-range flag value, an unknown flag or a stray
/// positional argument; what() names it.
class OptionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Options {
 public:
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;
  /// The whole value as a base-10 integer in [lo, hi]; `def` when absent.
  std::int64_t get_int(
      const std::string& key, std::int64_t def,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  /// The whole value as a finite double; `def` when absent.
  double get_double(const std::string& key, double def) const;
  /// true/1/yes or a bare flag is true, false/0/no is false; `def` when
  /// absent.
  bool get_bool(const std::string& key, bool def) const;
  /// Throws OptionError naming the first positional argument, or else the
  /// first given flag not in `accepted` (flag names without the leading
  /// "--") and listing the accepted ones.
  void reject_unknown(std::initializer_list<std::string_view> accepted) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::optional<std::string>> kv_;
  std::vector<std::string> positional_;
};

}  // namespace lazygraph
