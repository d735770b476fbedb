#include "testing/shrinker.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace lazygraph::testing {
namespace {

/// Remaps the scenario onto the vertices actually referenced by its edges
/// (plus the source, when the program needs one), renumbering densely.
/// Returns the input unchanged when every vertex is used.
Scenario compact_vertices(const Scenario& s) {
  std::vector<char> used(s.num_vertices, 0);
  for (const Edge& e : s.edges) used[e.src] = used[e.dst] = 1;
  if (s.needs_source() && s.source < s.num_vertices) used[s.source] = 1;
  // Batch lanes of source programs are vertex ids too; keep them resident
  // so the batch check stays non-vacuous through the compaction. (K-core
  // lanes are thresholds, not vertices — left untouched.)
  if (s.has_batch() && s.needs_source()) {
    for (const std::uint32_t src : s.batch_lanes()) {
      if (src < s.num_vertices) used[src] = 1;
    }
  }
  std::vector<vid_t> remap(s.num_vertices, 0);
  vid_t next = 0;
  for (vid_t v = 0; v < s.num_vertices; ++v) {
    remap[v] = next;
    if (used[v]) ++next;
  }
  if (next == s.num_vertices) return s;
  Scenario out = s;
  out.num_vertices = next;
  for (Edge& e : out.edges) {
    e.src = remap[e.src];
    e.dst = remap[e.dst];
  }
  if (s.needs_source() && s.source < s.num_vertices) {
    out.source = remap[s.source];
  } else {
    out.source = 0;
  }
  if (s.has_batch() && s.needs_source()) {
    auto lanes = s.batch_lanes();
    for (std::uint32_t& src : lanes) {
      src = src < s.num_vertices ? remap[src] : 0;
    }
    out.batch = Scenario::join_lanes(lanes);
  }
  return out;
}

class Shrinker {
 public:
  Shrinker(const Scenario& failing, const FailurePredicate& pred,
           std::size_t max_attempts)
      : pred_(pred), max_attempts_(max_attempts) {
    report_.scenario = failing;
  }

  ShrinkReport run() {
    ++report_.attempts;
    if (!pred_(report_.scenario)) return report_;  // not reproducible: keep
    bool improved = true;
    while (improved && budget_left()) {
      improved = false;
      improved |= shrink_machines();
      improved |= shrink_edges();
      improved |= shrink_vertices();
      improved |= shrink_batch_lanes();
      improved |= simplify_knobs();
    }
    return report_;
  }

 private:
  bool budget_left() const { return report_.attempts < max_attempts_; }

  /// Accepts the candidate if it still fails; returns whether it did.
  bool try_accept(Scenario cand) {
    if (!budget_left() || cand == report_.scenario) return false;
    ++report_.attempts;
    if (!pred_(cand)) return false;
    report_.scenario = std::move(cand);
    ++report_.accepted;
    return true;
  }

  bool shrink_machines() {
    bool improved = false;
    for (;;) {
      const machine_t m = report_.scenario.machines;
      if (m <= 1) break;
      bool step = false;
      for (machine_t cand : {machine_t{1}, machine_t{2}, m / 2, m - 1}) {
        if (cand == 0 || cand >= m) continue;
        Scenario c = report_.scenario;
        c.machines = cand;
        if (try_accept(std::move(c))) {
          step = improved = true;
          break;
        }
      }
      if (!step) break;
    }
    return improved;
  }

  /// ddmin-style chunk deletion over the edge list: halve the chunk size
  /// until single-edge removals have all been tried.
  bool shrink_edges() {
    bool improved = false;
    std::size_t chunk = std::max<std::size_t>(
        1, report_.scenario.edges.size() / 2);
    for (;;) {
      if (!budget_left()) break;
      std::size_t start = 0;
      while (start < report_.scenario.edges.size() && budget_left()) {
        Scenario c = report_.scenario;
        const std::size_t end =
            std::min(start + chunk, c.edges.size());
        c.edges.erase(c.edges.begin() + static_cast<std::ptrdiff_t>(start),
                      c.edges.begin() + static_cast<std::ptrdiff_t>(end));
        if (try_accept(std::move(c))) {
          improved = true;  // same start now points at the next chunk
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    }
    return improved;
  }

  bool shrink_vertices() {
    bool improved = improved_if(compact_vertices(report_.scenario));
    // Truncating trailing vertices can shrink cases whose failure does not
    // depend on the isolated tail (compact keeps used ones only; this also
    // covers scenarios made entirely of isolated vertices).
    while (report_.scenario.num_vertices > 1 && budget_left()) {
      Scenario c = report_.scenario;
      const vid_t keep = c.num_vertices - 1;
      std::erase_if(c.edges,
                    [&](const Edge& e) { return e.src >= keep || e.dst >= keep; });
      c.num_vertices = keep;
      if (c.needs_source() && c.source >= keep) c.source = 0;
      if (c.has_batch() && c.needs_source()) {
        auto lanes = c.batch_lanes();
        for (std::uint32_t& src : lanes) {
          if (src >= keep) src = 0;
        }
        c.batch = Scenario::join_lanes(lanes);
      }
      if (!try_accept(std::move(c))) break;
      improved = true;
    }
    return improved;
  }

  bool improved_if(Scenario cand) { return try_accept(std::move(cand)); }

  /// Drops extra batch lanes one at a time (down to a single extra lane;
  /// dropping the batch entirely is a simplify_knobs step, so "needs any
  /// batching at all" and "needs this many lanes" shrink separately).
  bool shrink_batch_lanes() {
    bool improved = false;
    for (;;) {
      if (!report_.scenario.has_batch() || !budget_left()) break;
      const auto lanes = report_.scenario.batch_lanes();
      if (lanes.size() <= 1) break;
      bool step = false;
      for (std::size_t i = 0; i < lanes.size() && budget_left(); ++i) {
        auto cand = lanes;
        cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
        Scenario c = report_.scenario;
        c.batch = Scenario::join_lanes(cand);
        if (try_accept(std::move(c))) {
          step = improved = true;
          break;
        }
      }
      if (!step) break;
    }
    return improved;
  }

  /// Resets every remaining knob to its canonical default, one at a time.
  bool simplify_knobs() {
    const Scenario defaults;
    bool improved = false;
    auto try_knob = [&](auto member) {
      Scenario c = report_.scenario;
      member(c);
      if (try_accept(std::move(c))) improved = true;
    };
    if (report_.scenario.has_batch()) {
      // Dropping the batch first separates "the bug needs batched lanes"
      // from "the scenario fails anyway" in one attempt.
      try_knob([](Scenario& c) { c.batch.clear(); });
    }
    if (report_.scenario.has_failures()) {
      // Dropping the failure plan first separates "the bug needs the kill"
      // from "the scenario fails anyway" in one attempt.
      try_knob([](Scenario& c) { c.kill.clear(); });
    }
    if (report_.scenario.split) {
      try_knob([](Scenario& c) { c.split = false; });
    }
    if (report_.scenario.cut != defaults.cut) {
      try_knob([&](Scenario& c) { c.cut = defaults.cut; });
    }
    if (report_.scenario.partition_seed != defaults.partition_seed) {
      try_knob([&](Scenario& c) { c.partition_seed = defaults.partition_seed; });
    }
    if (report_.scenario.staleness != defaults.staleness) {
      try_knob([&](Scenario& c) { c.staleness = defaults.staleness; });
    }
    if (report_.scenario.interval_policy != defaults.interval_policy) {
      try_knob([&](Scenario& c) { c.interval_policy = defaults.interval_policy; });
    }
    if (report_.scenario.comm_policy != defaults.comm_policy) {
      try_knob([&](Scenario& c) { c.comm_policy = defaults.comm_policy; });
    }
    if (report_.scenario.kcore_k != defaults.kcore_k) {
      try_knob([&](Scenario& c) { c.kcore_k = defaults.kcore_k; });
    }
    if (report_.scenario.source != 0) {
      try_knob([](Scenario& c) { c.source = 0; });
    }
    return improved;
  }

  const FailurePredicate& pred_;
  const std::size_t max_attempts_;
  ShrinkReport report_;
};

}  // namespace

ShrinkReport shrink(const Scenario& failing, const FailurePredicate& still_fails,
                    std::size_t max_attempts) {
  return Shrinker(failing, still_fails, max_attempts).run();
}

}  // namespace lazygraph::testing
