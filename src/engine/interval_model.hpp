// The input-behavior-interval model (paper Section 4.2.1): decides, at each
// data coherency point, whether the next interval runs local computation
// stages ("lazy mode on"), and bounds how much work a local stage may do.
//
// The trained classifier from the paper reduces to the rule
//     lazy_on  <=>  E/V <= 10  ||  trend >= 0.07
// where trend = (active[t-1] - active[t]) / active[t-1]  (negative while the
// algorithm's active set is still growing, the "ascent" part). The local
// stage budget is 3T with T the first local sweep's measured cost; we
// measure cost in edge traversals (deterministic) instead of wall seconds.
#pragma once

#include <cstdint>

namespace lazygraph::engine {

enum class IntervalPolicy {
  kAdaptive,    // the paper's trained rule
  kAlwaysLazy,  // Fig. 8(a)'s "simple strategy": lazy always on,
                // local stages run to convergence
  kNeverLazy,   // coherency every iteration (eager-like; ablation)
};

const char* to_string(IntervalPolicy p);

struct IntervalModelConfig {
  IntervalPolicy policy = IntervalPolicy::kAdaptive;
  double ev_ratio_threshold = 10.0;
  double trend_threshold = 0.07;
  /// Local stage work budget as a multiple of the first sweep (the "3T").
  double local_budget_factor = 3.0;
};

class IntervalModel {
 public:
  IntervalModel(const IntervalModelConfig& cfg, double ev_ratio);

  /// Called at each data coherency point with the current global active
  /// count; returns whether the next interval runs local computation stages.
  /// The first call always returns false under the adaptive policy (the
  /// paper runs the first iteration without a local stage).
  bool turn_on_lazy(std::uint64_t active_now);

  /// Work budget (in edge traversals) for one local computation stage: the
  /// paper bounds the stage at 3T where T is the measured execution time of
  /// the algorithm's first iteration — a full coherency round including the
  /// delta exchange and barrier. Converted to work units via the machine
  /// throughput `teps`, floored at 3x the stage's own first sweep.
  /// ~infinite under kAlwaysLazy (stages run to local convergence).
  std::uint64_t local_stage_budget(std::uint64_t first_sweep_work,
                                   double first_iteration_seconds,
                                   double teps) const;

  double last_trend() const { return last_trend_; }

 private:
  IntervalModelConfig cfg_;
  double ev_ratio_;
  bool seen_first_ = false;
  std::uint64_t prev_active_ = 0;
  double last_trend_ = 0.0;
};

}  // namespace lazygraph::engine
