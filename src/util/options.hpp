// Minimal command-line option parser for examples and bench drivers.
// Supports --key=value and --flag forms; anything else is a positional arg.
// A bare --flag is present with no value: get/get_int/get_double return
// their default for it, get_bool returns true.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lazygraph {

class Options {
 public:
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::optional<std::string>> kv_;
  std::vector<std::string> positional_;
};

}  // namespace lazygraph
