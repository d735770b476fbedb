#include "sim/cluster.hpp"

#include <algorithm>

#include "util/common.hpp"
#include "util/threadpool.hpp"

namespace lazygraph::sim {

Cluster::Cluster(const ClusterConfig& cfg)
    : machines_(cfg.machines),
      net_(cfg.net, cfg.machines),
      failures_(cfg.failures),
      threads_(resolve_threads(cfg.threads)) {
  require(machines_ >= 1, "Cluster: need at least one machine");
}

void Cluster::parallel_machines(util::FunctionRef<void(machine_t)> body) {
  if (threads_ > 1 && machines_ > 1) {
    // The pool path type-erases into std::function (and allocates control
    // blocks) by design; the serial path below is the zero-allocation one.
    shared_pool().parallel_for_chunks(
        machines_, 1, threads_, [&](std::size_t b, std::size_t e) {
          for (std::size_t m = b; m < e; ++m) {
            body(static_cast<machine_t>(m));
          }
        });
  } else {
    for (machine_t m = 0; m < machines_; ++m) body(m);
  }
}

TraceSpan Cluster::make_span(SpanKind kind, double start_seconds) const {
  TraceSpan span;
  span.kind = kind;
  span.superstep = metrics_.supersteps;
  span.start_seconds = start_seconds;
  span.duration_seconds = metrics_.sim_seconds() - start_seconds;
  return span;
}

void Cluster::charge_compute(
    SpanKind kind, std::span<const std::uint64_t> traversals_per_machine) {
  std::uint64_t max_work = 0, total = 0;
  std::uint64_t min_work = traversals_per_machine.empty()
                               ? 0
                               : traversals_per_machine.front();
  for (const std::uint64_t w : traversals_per_machine) {
    max_work = std::max(max_work, w);
    min_work = std::min(min_work, w);
    total += w;
  }
  const double start = metrics_.sim_seconds();
  metrics_.edge_traversals += total;
  metrics_.compute_seconds += net_.compute_seconds(max_work);
  if (tracer_) {
    TraceSpan span = make_span(kind, start);
    span.machines = static_cast<std::uint32_t>(traversals_per_machine.size());
    span.min_work = min_work;
    span.max_work = max_work;
    span.mean_work = span.machines > 0
                         ? static_cast<double>(total) / span.machines
                         : 0.0;
    tracer_->record_span(span);
  }
}

void Cluster::charge_barrier(SpanKind kind) {
  const double start = metrics_.sim_seconds();
  ++metrics_.global_syncs;
  metrics_.barrier_seconds += net_.barrier_seconds(machines_);
  if (tracer_) {
    TraceSpan span = make_span(kind, start);
    span.machines = machines_;
    tracer_->record_span(span);
  }
}

void Cluster::charge_exchange(SpanKind kind, CommMode mode,
                              std::uint64_t raw_bytes,
                              std::uint64_t wire_bytes, std::uint64_t messages,
                              const CommPrediction* prediction) {
  const double start = metrics_.sim_seconds();
  // The compressed encoding is what actually crosses the network: volume
  // counters and the bandwidth charge both price wire bytes; raw bytes are
  // kept alongside so the compression ratio is a first-class counter.
  metrics_.network_bytes += wire_bytes;
  metrics_.network_messages += messages;
  metrics_.exchange_bytes_raw += raw_bytes;
  metrics_.exchange_bytes_wire += wire_bytes;
  if (mode == CommMode::kAllToAll) {
    ++metrics_.a2a_exchanges;
  } else {
    ++metrics_.m2m_exchanges;
  }
  const double mb = static_cast<double>(wire_bytes) / (1024.0 * 1024.0);
  metrics_.comm_seconds += net_.comm_seconds(mode, mb);
  if (tracer_) {
    TraceSpan span = make_span(kind, start);
    span.bytes = wire_bytes;
    span.raw_bytes = raw_bytes;
    span.messages = messages;
    span.comm_mode = static_cast<int>(mode);
    if (prediction) span.prediction = *prediction;
    tracer_->record_span(span);
  }
}

void Cluster::charge_fine_grained(SpanKind kind, std::uint64_t raw_bytes,
                                  std::uint64_t wire_bytes,
                                  std::uint64_t messages) {
  const double start = metrics_.sim_seconds();
  metrics_.network_bytes += wire_bytes;
  metrics_.network_messages += messages;
  metrics_.exchange_bytes_raw += raw_bytes;
  metrics_.exchange_bytes_wire += wire_bytes;
  const double mb = static_cast<double>(wire_bytes) / (1024.0 * 1024.0) *
                    net_.config().volume_scale;
  metrics_.comm_seconds += mb / net_.aggregate_bandwidth_mb_per_s();
  metrics_.overhead_seconds +=
      net_.message_overhead_seconds(messages, machines_);
  if (tracer_) {
    TraceSpan span = make_span(kind, start);
    span.bytes = wire_bytes;
    span.raw_bytes = raw_bytes;
    span.messages = messages;
    tracer_->record_span(span);
  }
}

void Cluster::charge_guard(std::uint64_t bytes, std::uint64_t entries) {
  const double start = metrics_.sim_seconds();
  metrics_.guard_bytes += bytes;
  metrics_.network_bytes += bytes;
  metrics_.network_messages += entries;
  const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0) *
                    net_.config().volume_scale;
  metrics_.comm_seconds += mb / net_.aggregate_bandwidth_mb_per_s();
  metrics_.overhead_seconds +=
      net_.message_overhead_seconds(entries, machines_);
  if (tracer_) {
    TraceSpan span = make_span(SpanKind::kGuard, start);
    span.bytes = bytes;
    span.messages = entries;
    tracer_->record_span(span);
  }
}

double Cluster::charge_recovery(const RecoveryCharge& charge) {
  const double start = metrics_.sim_seconds();
  ++metrics_.recoveries;
  const std::uint64_t bytes = charge.mirror_bytes + charge.log_bytes;
  metrics_.recovery_bytes += bytes;
  metrics_.network_bytes += bytes;
  metrics_.network_messages += charge.log_entries;
  // Downtime: the cluster stalls for the configured barrier count while the
  // replacement machine comes up. Not counted as global_syncs — nothing
  // synchronizes; the survivors are simply waiting.
  metrics_.barrier_seconds +=
      static_cast<double>(charge.down_barriers) *
      net_.barrier_seconds(machines_);
  // The local CSR slab is rebuilt from the cached partition artifact: pure
  // local compute at TEPS, no re-ingest.
  metrics_.compute_seconds += net_.compute_seconds(charge.rebuild_edges);
  // Mirror images + delta-log replay funnel through the one rebuilt NIC.
  const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  metrics_.comm_seconds += net_.recovery_seconds(mb);
  metrics_.overhead_seconds +=
      net_.message_overhead_seconds(charge.log_entries, 1);
  const double seconds = metrics_.sim_seconds() - start;
  if (tracer_) {
    TraceSpan span = make_span(SpanKind::kRecovery, start);
    span.machines = 1;
    span.bytes = bytes;
    span.messages = charge.log_entries;
    tracer_->record_span(span);
    tracer_->record_recovery({.superstep = charge.superstep,
                              .machine = charge.machine,
                              .down_barriers = charge.down_barriers,
                              .mirror_bytes = charge.mirror_bytes,
                              .log_bytes = charge.log_bytes,
                              .rebuild_edges = charge.rebuild_edges,
                              .mirror_exact = charge.mirror_exact,
                              .seconds = seconds});
  }
  return seconds;
}

}  // namespace lazygraph::sim
