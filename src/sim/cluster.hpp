// Deterministic in-process cluster: P logical machines executing BSP-staged
// work, a NetworkModel charging simulated time, and SimMetrics accounting.
//
// Engines call parallel_machines() for embarrassingly parallel per-machine
// work (local computation stages), then the charge_* helpers to account the
// superstep. Execution is bit-deterministic: machines never share mutable
// state inside a stage, and cross-machine data moves only between stages.
// The machines run on the process-wide shared_pool(); a Cluster owns no
// threads, only a cap on how many of them one call may use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/failure.hpp"
#include "sim/metrics.hpp"
#include "sim/netmodel.hpp"
#include "sim/trace.hpp"
#include "util/function_ref.hpp"

namespace lazygraph::sim {

struct ClusterConfig {
  machine_t machines = 8;
  NetworkModelConfig net = {};
  /// Most machine bodies one parallel_machines call runs at once on the
  /// shared pool (the caller included); 0 = hardware concurrency, 1 = fully
  /// serial and allocation-free (useful in tests).
  std::size_t threads = 0;
  /// Deterministic machine-failure schedule; empty = no failures. Engines
  /// act on it at coherency points via recovery::Recoverer.
  FailurePlan failures = {};
};

/// The machine whose parallel_machines body the calling thread is running,
/// or kInvalidMachine outside every body.
machine_t current_machine();

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);

  machine_t num_machines() const { return machines_; }
  const NetworkModel& net() const { return net_; }
  const FailurePlan& failures() const { return failures_; }
  SimMetrics& metrics() { return metrics_; }
  const SimMetrics& metrics() const { return metrics_; }
  void reset_metrics() { metrics_ = SimMetrics{}; }

  /// Attaches (or detaches, with nullptr) a span recorder. Every charge_*
  /// call appends exactly one span while a tracer is attached; a null
  /// tracer costs one branch per charge and allocates nothing.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Runs body(m) for every machine m on up to `threads` threads of the
  /// shared pool. body must only write machine-m state; while it runs,
  /// current_machine() on its thread returns m (serial path included), which
  /// the engines' debug ownership checks compare against. Takes a
  /// FunctionRef so the serial path (threads == 1) performs no heap
  /// allocation per call. Machines are claimed in ascending order, one at a
  /// time.
  void parallel_machines(util::FunctionRef<void(machine_t)> body);

  /// Charges compute time for one stage: max over machines of the given
  /// per-machine edge-traversal counts, at TEPS. Also accumulates the raw
  /// traversal counter. The kinded overload labels the stage's span.
  void charge_compute(SpanKind kind,
                      std::span<const std::uint64_t> traversals_per_machine);
  void charge_compute(std::span<const std::uint64_t> traversals_per_machine) {
    charge_compute(SpanKind::kCompute, traversals_per_machine);
  }

  /// Charges one global synchronization (barrier) across all machines.
  void charge_barrier(SpanKind kind = SpanKind::kBarrier);

  /// Charges a replica-exchange collective: `wire_bytes` actually cross the
  /// network (the engine::wire codec's exact encoded size — this is what
  /// NetworkModel prices) in `messages` point-to-point messages using
  /// `mode`; `raw_bytes` is what the same records would have cost on the
  /// uncompressed fallback path (kUncompressedHeaderBytes + payload each).
  /// Both sides accumulate into SimMetrics::exchange_bytes_{raw,wire}.
  /// `prediction`, when given, attaches the comm-mode selector's
  /// fitted-curve estimates to the span (coherency exchanges).
  void charge_exchange(SpanKind kind, CommMode mode, std::uint64_t raw_bytes,
                       std::uint64_t wire_bytes, std::uint64_t messages,
                       const CommPrediction* prediction = nullptr);
  void charge_exchange(CommMode mode, std::uint64_t bytes,
                       std::uint64_t messages) {
    charge_exchange(SpanKind::kExchange, mode, bytes, bytes, messages);
  }

  /// Charges fine-grained eager traffic (async engines): per-message
  /// overhead plus bandwidth, no barrier. raw/wire as in charge_exchange.
  void charge_fine_grained(SpanKind kind, std::uint64_t raw_bytes,
                           std::uint64_t wire_bytes, std::uint64_t messages);
  void charge_fine_grained(std::uint64_t bytes, std::uint64_t messages) {
    charge_fine_grained(SpanKind::kFineGrained, bytes, bytes, messages);
  }

  /// Charges the delta-log guard kept between coherency points: `bytes` of
  /// changed master state shipped to survivors in `entries` messages.
  /// Modeled like fine-grained traffic (bandwidth + per-message overhead);
  /// appends one kGuard span.
  void charge_guard(std::uint64_t bytes, std::uint64_t entries);

  /// What one dead-machine reconstruction costs (recovery::Recoverer fills
  /// this in from the surviving replicas and the delta log).
  struct RecoveryCharge {
    std::uint64_t superstep = 0;      // coherency point the kill fired at
    machine_t machine = 0;            // machine being rebuilt
    std::uint32_t down_barriers = 1;  // barriers of downtime before re-admit
    std::uint64_t mirror_bytes = 0;   // boundary vdata pulled from mirrors
    std::uint64_t log_bytes = 0;      // interior state replayed from the log
    std::uint64_t log_entries = 0;    // messages carrying the log replay
    std::uint64_t rebuild_edges = 0;  // local CSR edges rebuilt from artifact
    std::uint64_t mirror_exact = 0;   // boundary slots bit-equal on a survivor
  };

  /// Charges one recovery: downtime barriers (no global_syncs — the cluster
  /// stalls, nothing synchronizes), CSR rebuild compute, and the mirror/log
  /// gather through the rebuilt machine's NIC. Appends one kRecovery
  /// TraceSpan and one RecoverySpan stamped with the same seconds, so the
  /// trace-tiling invariant extends to recovery. Returns those seconds.
  double charge_recovery(const RecoveryCharge& charge);

 private:
  /// Stamps the fields common to every span (superstep, start, duration).
  TraceSpan make_span(SpanKind kind, double start_seconds) const;

  machine_t machines_;
  NetworkModel net_;
  FailurePlan failures_;
  SimMetrics metrics_;
  Tracer* tracer_ = nullptr;          // not owned; null = tracing off
  std::size_t threads_;               // resolved cap; 1 = serial
};

}  // namespace lazygraph::sim
