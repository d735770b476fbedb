#include "util/options.hpp"

#include <cstdlib>

namespace lazygraph {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_[arg] = std::nullopt;
      } else {
        kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Options::get(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second.value_or(def);
}

std::int64_t Options::get_int(const std::string& key, std::int64_t def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || !it->second) return def;
  return std::strtoll(it->second->c_str(), nullptr, 10);
}

double Options::get_double(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || !it->second) return def;
  return std::strtod(it->second->c_str(), nullptr);
}

bool Options::get_bool(const std::string& key, bool def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  if (!it->second) return true;
  const std::string& v = *it->second;
  return v == "true" || v == "1" || v == "yes";
}

}  // namespace lazygraph
