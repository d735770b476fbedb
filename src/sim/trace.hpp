// Run-wide observability: a timeline of typed spans plus per-superstep
// decision snapshots, recorded by the Cluster charge helpers and the engines.
//
// Every simulated second charged to SimMetrics flows through exactly one
// charge_* helper, and each helper appends exactly one span when a Tracer is
// attached — so sum(span.duration_seconds) == SimMetrics::sim_seconds() by
// construction. Spans carry per-machine compute skew (min/max/mean work),
// traffic volume, and — for coherency exchanges — the comm-mode decision
// (predicted t_a2a vs t_m2m from the fitted curves). Superstep snapshots
// record what the adaptive machinery decided and why (active-vertex count,
// interval-model trend, measured T).
//
// Tracing is strictly opt-in: a null Tracer* costs one branch per charge and
// allocates nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace lazygraph::sim {

/// What protocol stage a span accounts for. The eager kinds mirror the
/// Sync/Async GAS phases; the lazy kinds mirror Algorithm 1/2's stages.
enum class SpanKind : std::uint8_t {
  kLocalStage,         // lazy Stage 1: machine-local apply+scatter sweeps
  kApplySweep,         // coherency-point apply+scatter of the merged view
  kCoherencyExchange,  // replica delta exchange (lazy Stage 2)
  kBarrier,            // one global synchronization
  kEagerGather,        // eager gather: mirror accumulator -> master
  kEagerBroadcast,     // eager apply: master vdata -> mirrors
  kEagerScatter,       // eager scatter along local out-edges
  kAsyncRound,         // one Gauss-Seidel round of the async engine
  kFineGrained,        // fine-grained traffic (per-message overhead path)
  kCompute,            // generic compute charge (untyped callers)
  kExchange,           // generic exchange charge (untyped callers)
  kGuard,              // delta-log guard kept since the last coherency point
  kRecovery,           // dead-machine reconstruction (mirrors + delta log);
                       // both participate in the spans-tile-sim-time
                       // invariant like any other engine span
  // Setup-path kinds: used only by SetupSpan (wall-clock timeline), never by
  // engine TraceSpans — they would break the spans-tile-sim_seconds
  // invariant the oracle checks.
  kIngest,             // edge-list / binary graph loading + generation
  kPartition,          // vertex-cut edge assignment
  kBuild,              // DistributedGraph CSR construction
  // Plan-lowering kinds (also SetupSpan-only): one span per lowering
  // decision the plan executor makes, so every cache hit, carried frontier,
  // and fusion is visible in the trace.
  kPlanLower,          // one lowered engine-run group (items = fused stages,
                       // cache_hit = stage-outcome reused without running)
  kPlanCarry,          // carried-frontier injection (items = frontier size)
  // Serving kinds (also SetupSpan-only): the query server's per-query
  // timeline on the virtual clock (see src/serve/).
  kServeQueue,         // admission wait: arrival -> batch dispatch
                       // (items = batch id the query was packed into)
  kServeQuery,         // service: dispatch -> batch completion
                       // (items = lane index within the batch)
};

const char* to_string(SpanKind k);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
SpanKind span_kind_from_string(const std::string& s);

/// Predicted collective times for one coherency exchange, from the fitted
/// t_a2a / t_m2m curves. Negative = not predicted (forced mode or n/a).
struct CommPrediction {
  double t_a2a_seconds = -1.0;
  double t_m2m_seconds = -1.0;

  bool operator==(const CommPrediction&) const = default;
};

/// One charged interval of simulated time.
struct TraceSpan {
  SpanKind kind = SpanKind::kCompute;
  std::uint64_t superstep = 0;     // engine superstep at charge time
  double start_seconds = 0.0;      // SimMetrics::sim_seconds() before charge
  double duration_seconds = 0.0;   // simulated seconds this charge added

  // Per-machine compute skew (compute spans; machines == 0 otherwise).
  std::uint32_t machines = 0;
  std::uint64_t min_work = 0;
  std::uint64_t max_work = 0;
  double mean_work = 0.0;

  // Traffic (communication spans). `bytes` is what crossed the wire (the
  // codec's encoded size); `raw_bytes` is the uncompressed-fallback size of
  // the same records (0 on spans with no raw/wire distinction, e.g. guard
  // and recovery traffic, which stay on the fallback path).
  std::uint64_t bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t messages = 0;

  // Comm-mode decision (coherency exchanges; -1 = no mode involved).
  int comm_mode = -1;  // static_cast<int>(sim::CommMode) when >= 0
  CommPrediction prediction = {};

  bool operator==(const TraceSpan&) const = default;
};

/// One wall-clock setup stage (ingest / partition / build). Setup spans live
/// on their own timeline, separate from the simulated-time TraceSpans: they
/// measure real elapsed seconds of the host process, are excluded from
/// total_span_seconds(), and never participate in the spans-tile-sim-time
/// invariant.
struct SetupSpan {
  SpanKind kind = SpanKind::kIngest;
  double start_seconds = 0.0;     // running total of prior setup spans
  double duration_seconds = 0.0;  // wall-clock seconds of this stage
  std::uint64_t items = 0;        // edges read / edges assigned / local edges
  bool cache_hit = false;         // artifact cache satisfied this stage

  bool operator==(const SetupSpan&) const = default;
};

/// One dead-machine reconstruction (src/recovery/). `seconds` is stamped
/// from the same value as the matching kRecovery TraceSpan's duration, so
/// sum(RecoverySpan.seconds) == sum(kRecovery span durations) exactly and
/// the trace-tiling invariant extends to recovery traffic.
struct RecoverySpan {
  std::uint64_t superstep = 0;      // coherency point at which the kill fired
  std::uint32_t machine = 0;        // machine that died and was rebuilt
  std::uint32_t down_barriers = 0;  // barriers of downtime before re-admit
  std::uint64_t mirror_bytes = 0;   // boundary vdata recovered from mirrors
  std::uint64_t log_bytes = 0;      // interior vdata + slots from the delta log
  std::uint64_t rebuild_edges = 0;  // local CSR edges rebuilt from the artifact
  std::uint64_t mirror_exact = 0;   // boundary slots bit-equal on a survivor
  double seconds = 0.0;             // simulated seconds the recovery charged

  bool operator==(const RecoverySpan&) const = default;
};

/// What the adaptive machinery decided at one coherency point.
struct SuperstepSnapshot {
  std::uint64_t superstep = 0;
  std::uint64_t active_vertices = 0;
  bool lazy_on = false;          // interval model: next interval runs Stage 1
  double trend = 0.0;            // (active[t-1] - active[t]) / active[t-1]
  double measured_t_seconds = 0.0;  // the "T" calibrating the 3T budget
  int comm_mode = -1;            // mode chosen this superstep (-1 = none)
  CommPrediction prediction = {};

  bool operator==(const SuperstepSnapshot&) const = default;
};

class Tracer {
 public:
  void set_run_info(std::string engine, std::string algo = "");
  const std::string& engine() const { return engine_; }
  const std::string& algo() const { return algo_; }

  void record_span(const TraceSpan& s) { spans_.push_back(s); }
  void record_superstep(const SuperstepSnapshot& s) { snapshots_.push_back(s); }
  void record_recovery(const RecoverySpan& s) { recovery_spans_.push_back(s); }
  /// Appends a setup stage; start_seconds is assigned automatically (the
  /// running total of previously recorded setup spans).
  void record_setup(SetupSpan s);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<SuperstepSnapshot>& snapshots() const { return snapshots_; }
  const std::vector<SetupSpan>& setup_spans() const { return setup_spans_; }
  const std::vector<RecoverySpan>& recoveries() const {
    return recovery_spans_;
  }
  void clear();

  /// Sum of all span durations; equals SimMetrics::sim_seconds() of the run
  /// the tracer was attached to.
  double total_span_seconds() const;
  /// Sum of setup-span durations (wall-clock; disjoint from simulated time).
  double total_setup_seconds() const;

  // --- export ---
  /// One JSON object per line: a "run" header, then "span" / "superstep" /
  /// "recovery" records in timeline order.
  void write_jsonl(std::ostream& os) const;
  /// Parses write_jsonl output back (exact round-trip).
  static Tracer read_jsonl(std::istream& is);

  /// Full timeline as an aligned table.
  Table spans_table() const;
  /// The k most expensive spans by duration (ties broken by timeline order).
  Table top_spans_table(std::size_t k) const;
  /// Aggregate per span kind: count, seconds, share, traffic.
  Table kind_summary_table() const;
  /// The per-superstep decision log.
  Table supersteps_table() const;
  /// The wall-clock setup timeline (empty table if no setup was recorded).
  Table setup_table() const;
  /// Recovery events (empty table if no machine died).
  Table recoveries_table() const;

 private:
  std::string engine_;
  std::string algo_;
  std::vector<TraceSpan> spans_;
  std::vector<SuperstepSnapshot> snapshots_;
  std::vector<SetupSpan> setup_spans_;
  std::vector<RecoverySpan> recovery_spans_;
};

}  // namespace lazygraph::sim
