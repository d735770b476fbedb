#include "util/options.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string_view>

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

std::int64_t Options::get_int(const std::string& key, std::int64_t def,
                              std::int64_t lo, std::int64_t hi) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || !it->second) return def;
  const std::string& text = *it->second;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() ||
      std::isspace(static_cast<unsigned char>(text.front()))) {
    throw OptionError("--" + key + ": expected an integer, got '" + text +
                      "'");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    // Appended piecewise: `"[" + std::to_string(lo)` trips GCC 12's -O3
    // -Wrestrict false positive (GCC bug 105651).
    const bool bounded = hi != std::numeric_limits<std::int64_t>::max();
    std::string range = bounded ? "[" : ">= ";
    range += std::to_string(lo);
    if (bounded) {
      range += ", ";
      range += std::to_string(hi);
      range += ']';
    }
    throw OptionError("--" + key + ": " + text + " is out of range (must be " +
                      range + ")");
  }
  return v;
}

double Options::get_double(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || !it->second) return def;
  const std::string& text = *it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      std::isspace(static_cast<unsigned char>(text.front()))) {
    throw OptionError("--" + key + ": expected a number, got '" + text + "'");
  }
  if (errno == ERANGE || !std::isfinite(v)) {
    throw OptionError("--" + key + ": " + text +
                      " is out of range (must be a finite double)");
  }
  return v;
}

void Options::reject_unknown(
    std::initializer_list<std::string_view> accepted) const {
  if (!positional_.empty()) {
    throw OptionError("unexpected argument '" + positional_.front() +
                      "' (value flags take --flag=value)");
  }
  for (const auto& [key, value] : kv_) {
    bool known = false;
    for (const std::string_view a : accepted) known = known || a == key;
    if (known) continue;
    std::string list;
    for (const std::string_view a : accepted) {
      list += (list.empty() ? "--" : ", --") + std::string(a);
    }
    throw OptionError("unknown flag --" + key + " (accepted: " + list + ")");
  }
}

bool Options::get_bool(const std::string& key, bool def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  if (!it->second) return true;
  const std::string& v = *it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw OptionError("--" + key +
                    ": expected true/false/1/0/yes/no, got '" + v + "'");
}

}  // namespace lazygraph
