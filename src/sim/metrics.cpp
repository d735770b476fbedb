#include "sim/metrics.hpp"

#include <algorithm>
#include <iomanip>

namespace lazygraph::sim {

SimMetrics& SimMetrics::operator+=(const SimMetrics& o) {
  global_syncs += o.global_syncs;
  network_messages += o.network_messages;
  network_bytes += o.network_bytes;
  supersteps += o.supersteps;
  local_subiterations += o.local_subiterations;
  applies += o.applies;
  edge_traversals += o.edge_traversals;
  a2a_exchanges += o.a2a_exchanges;
  m2m_exchanges += o.m2m_exchanges;
  vertex_coherency_events += o.vertex_coherency_events;
  sweep_scanned += o.sweep_scanned;
  sweep_edges_pushed += o.sweep_edges_pushed;
  sweep_pull_rounds += o.sweep_pull_rounds;
  sweep_edges_pulled += o.sweep_edges_pulled;
  exchange_bytes_raw += o.exchange_bytes_raw;
  exchange_bytes_wire += o.exchange_bytes_wire;
  state_bytes = std::max(state_bytes, o.state_bytes);
  recoveries += o.recoveries;
  guard_bytes += o.guard_bytes;
  recovery_bytes += o.recovery_bytes;
  compute_seconds += o.compute_seconds;
  comm_seconds += o.comm_seconds;
  barrier_seconds += o.barrier_seconds;
  overhead_seconds += o.overhead_seconds;
  setup_seconds += o.setup_seconds;
  setup_cache_hits += o.setup_cache_hits;
  setup_cache_misses += o.setup_cache_misses;
  return *this;
}

void SimMetrics::print(std::ostream& os, const std::string& label) const {
  os << std::fixed << std::setprecision(4);
  os << label << ": sim_time=" << sim_seconds() << "s"
     << " (compute=" << compute_seconds << " comm=" << comm_seconds
     << " barrier=" << barrier_seconds << " overhead=" << overhead_seconds
     << ")\n"
     << label << ": syncs=" << global_syncs << " supersteps=" << supersteps
     << " local_subiters=" << local_subiterations << " applies=" << applies
     << " traversals=" << edge_traversals
     << " scanned=" << sweep_scanned << "\n"
     << label << ": msgs=" << network_messages << " traffic="
     << std::setprecision(3) << network_mb() << "MB a2a=" << a2a_exchanges
     << " m2m=" << m2m_exchanges << "\n";
  if (exchange_bytes_raw > 0) {
    const double raw_mb =
        static_cast<double>(exchange_bytes_raw) / (1024.0 * 1024.0);
    const double wire_mb =
        static_cast<double>(exchange_bytes_wire) / (1024.0 * 1024.0);
    os << std::setprecision(3) << label << ": exchange_raw=" << raw_mb
       << "MB exchange_wire=" << wire_mb << "MB ratio="
       << (exchange_bytes_wire > 0
               ? static_cast<double>(exchange_bytes_raw) /
                     static_cast<double>(exchange_bytes_wire)
               : 0.0)
       << "x state="
       << static_cast<double>(state_bytes) / (1024.0 * 1024.0) << "MB\n";
  }
  if (sweep_edges_pushed > 0) {
    os << label << ": sweep_pushed=" << sweep_edges_pushed << "\n";
  }
  if (recoveries > 0 || guard_bytes > 0) {
    os << std::setprecision(3) << label << ": recoveries=" << recoveries
       << " guard="
       << static_cast<double>(guard_bytes) / (1024.0 * 1024.0)
       << "MB recovery="
       << static_cast<double>(recovery_bytes) / (1024.0 * 1024.0) << "MB\n";
  }
  if (setup_seconds > 0.0 || setup_cache_hits + setup_cache_misses > 0) {
    os << std::setprecision(4) << label << ": setup_wall=" << setup_seconds
       << "s cache_hits=" << setup_cache_hits
       << " cache_misses=" << setup_cache_misses << "\n";
  }
}

}  // namespace lazygraph::sim
