#include "engine/interval_model.hpp"

#include <cmath>
#include <limits>

namespace lazygraph::engine {

const char* to_string(IntervalPolicy p) {
  switch (p) {
    case IntervalPolicy::kAdaptive: return "adaptive";
    case IntervalPolicy::kAlwaysLazy: return "always-lazy";
    case IntervalPolicy::kNeverLazy: return "never-lazy";
  }
  return "?";
}

IntervalModel::IntervalModel(const IntervalModelConfig& cfg, double ev_ratio)
    : cfg_(cfg), ev_ratio_(ev_ratio) {}

bool IntervalModel::turn_on_lazy(std::uint64_t active_now) {
  switch (cfg_.policy) {
    case IntervalPolicy::kAlwaysLazy:
      return true;
    case IntervalPolicy::kNeverLazy:
      return false;
    case IntervalPolicy::kAdaptive:
      break;
  }
  if (!seen_first_) {
    seen_first_ = true;
    prev_active_ = active_now;
    last_trend_ = 0.0;
    return false;  // first iteration runs without a local stage
  }
  if (prev_active_ > 0) {
    last_trend_ = (static_cast<double>(prev_active_) -
                   static_cast<double>(active_now)) /
                  static_cast<double>(prev_active_);
  } else {
    last_trend_ = 0.0;
  }
  prev_active_ = active_now;
  return ev_ratio_ <= cfg_.ev_ratio_threshold ||
         last_trend_ >= cfg_.trend_threshold;
}

std::uint64_t IntervalModel::local_stage_budget(
    std::uint64_t first_sweep_work, double first_iteration_seconds,
    double teps) const {
  if (cfg_.policy == IntervalPolicy::kAlwaysLazy) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const double by_time =
      cfg_.local_budget_factor * first_iteration_seconds * teps;
  const double by_work =
      cfg_.local_budget_factor * static_cast<double>(first_sweep_work);
  return static_cast<std::uint64_t>(std::llround(std::max(by_time, by_work)));
}

}  // namespace lazygraph::engine
