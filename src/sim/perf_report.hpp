// First-class per-phase perf report (Issue: hot-path memory-layout
// overhaul): fold a run's TraceSpans by SpanKind into a libgrape-lite-style
// table of per-phase simulated seconds and traffic, alongside the run-wide
// counters the bench gate tracks (raw vs encoded exchange volume, sweep
// work, peak resident state bytes).
//
// The report is derived entirely from artifacts the run already produces —
// the Tracer timeline and the final SimMetrics — so it costs nothing unless
// requested. Phases appear in timeline order of first occurrence; the
// `share` column is each phase's fraction of total simulated seconds, and
// sum(seconds) == SimMetrics::sim_seconds() by the spans-tile-sim-time
// invariant.
//
// JSON schema (write_json; one object, stable key set):
//   {
//     "engine": str, "algo": str,
//     "wall_seconds": float,            // host time of the engine run
//     "sim_seconds": float,
//     "supersteps": u64, "global_syncs": u64,
//     "applies": u64, "edge_traversals": u64, "sweep_scanned": u64,
//     "sweep_edges_pushed": u64,
//     "network_bytes": u64,
//     "exchange_bytes_raw": u64, "exchange_bytes_wire": u64,
//     "state_bytes": u64,
//     "phases": [ {"kind": str, "spans": u64, "seconds": float,
//                  "share": float, "bytes_wire": u64, "bytes_raw": u64,
//                  "messages": u64} ... ]
//   }
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/table.hpp"

namespace lazygraph::sim {

struct PerfReport {
  struct Phase {
    SpanKind kind = SpanKind::kCompute;
    std::uint64_t spans = 0;
    double seconds = 0.0;
    std::uint64_t bytes_wire = 0;  // encoded bytes charged to the network
    std::uint64_t bytes_raw = 0;   // uncompressed-fallback size of the same
                                   // records (0 = no raw/wire distinction)
    std::uint64_t messages = 0;
  };

  std::string engine;
  std::string algo;
  double wall_seconds = 0.0;  // host wall-clock of the engine run
  SimMetrics metrics;         // final run counters (sim_seconds() et al.)
  std::vector<Phase> phases;  // timeline order of first appearance

  /// Per-phase table: kind, spans, sim seconds, share, wire/raw MB, msgs.
  Table table() const;
  /// Run-wide counters as a two-column table (one row per counter).
  Table totals_table() const;
  /// The full report as a single JSON object (schema in the header comment).
  void write_json(std::ostream& os) const;
};

/// Folds the tracer's engine spans by kind. `metrics` should be the run's
/// final counters (RunResult::metrics, which includes state_bytes);
/// `wall_seconds` the host time spent inside the engine run.
PerfReport build_perf_report(const Tracer& tracer, const SimMetrics& metrics,
                             double wall_seconds);

}  // namespace lazygraph::sim
