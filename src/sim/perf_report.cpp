#include "sim/perf_report.hpp"

#include <ostream>
#include <sstream>

namespace lazygraph::sim {

namespace {

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

PerfReport build_perf_report(const Tracer& tracer, const SimMetrics& metrics,
                             double wall_seconds) {
  PerfReport report;
  report.engine = tracer.engine();
  report.algo = tracer.algo();
  report.wall_seconds = wall_seconds;
  report.metrics = metrics;
  for (const TraceSpan& s : tracer.spans()) {
    PerfReport::Phase* phase = nullptr;
    for (auto& p : report.phases) {
      if (p.kind == s.kind) {
        phase = &p;
        break;
      }
    }
    if (!phase) {
      report.phases.push_back({.kind = s.kind});
      phase = &report.phases.back();
    }
    ++phase->spans;
    phase->seconds += s.duration_seconds;
    phase->bytes_wire += s.bytes;
    phase->bytes_raw += s.raw_bytes;
    phase->messages += s.messages;
  }
  return report;
}

Table PerfReport::table() const {
  Table t({"phase", "spans", "sim_s", "share", "wire_MB", "raw_MB", "msgs"});
  const double total = metrics.sim_seconds();
  for (const Phase& p : phases) {
    t.add_row({to_string(p.kind), Table::num(p.spans),
               Table::num(p.seconds, 4),
               Table::num(total > 0 ? p.seconds / total : 0.0, 3),
               Table::num(mb(p.bytes_wire), 2), Table::num(mb(p.bytes_raw), 2),
               Table::num(p.messages)});
  }
  return t;
}

Table PerfReport::totals_table() const {
  Table t({"counter", "value"});
  t.add_row({"wall_seconds", Table::num(wall_seconds, 3)});
  t.add_row({"sim_seconds", Table::num(metrics.sim_seconds(), 4)});
  t.add_row({"supersteps", Table::num(metrics.supersteps)});
  t.add_row({"global_syncs", Table::num(metrics.global_syncs)});
  t.add_row({"applies", Table::num(metrics.applies)});
  t.add_row({"edge_traversals", Table::num(metrics.edge_traversals)});
  t.add_row({"sweep_scanned", Table::num(metrics.sweep_scanned)});
  if (metrics.sweep_edges_pushed > 0) {
    t.add_row({"sweep_edges_pushed", Table::num(metrics.sweep_edges_pushed)});
  }
  t.add_row({"network_MB", Table::num(metrics.network_mb(), 2)});
  t.add_row(
      {"exchange_raw_MB", Table::num(mb(metrics.exchange_bytes_raw), 2)});
  t.add_row(
      {"exchange_wire_MB", Table::num(mb(metrics.exchange_bytes_wire), 2)});
  if (metrics.exchange_bytes_wire > 0) {
    t.add_row({"compression_ratio",
               Table::num(static_cast<double>(metrics.exchange_bytes_raw) /
                              static_cast<double>(metrics.exchange_bytes_wire),
                          3)});
  }
  t.add_row({"state_MB", Table::num(mb(metrics.state_bytes), 2)});
  return t;
}

void PerfReport::write_json(std::ostream& os) const {
  os << "{\"engine\":\"" << engine << "\",\"algo\":\"" << algo << "\""
     << ",\"wall_seconds\":" << fmt(wall_seconds)
     << ",\"sim_seconds\":" << fmt(metrics.sim_seconds())
     << ",\"supersteps\":" << metrics.supersteps
     << ",\"global_syncs\":" << metrics.global_syncs
     << ",\"applies\":" << metrics.applies
     << ",\"edge_traversals\":" << metrics.edge_traversals
     << ",\"sweep_scanned\":" << metrics.sweep_scanned
     << ",\"sweep_edges_pushed\":" << metrics.sweep_edges_pushed
     << ",\"network_bytes\":" << metrics.network_bytes
     << ",\"exchange_bytes_raw\":" << metrics.exchange_bytes_raw
     << ",\"exchange_bytes_wire\":" << metrics.exchange_bytes_wire
     << ",\"state_bytes\":" << metrics.state_bytes << ",\"phases\":[";
  const double total = metrics.sim_seconds();
  bool first = true;
  for (const Phase& p : phases) {
    if (!first) os << ",";
    first = false;
    os << "{\"kind\":\"" << to_string(p.kind) << "\",\"spans\":" << p.spans
       << ",\"seconds\":" << fmt(p.seconds)
       << ",\"share\":" << fmt(total > 0 ? p.seconds / total : 0.0)
       << ",\"bytes_wire\":" << p.bytes_wire
       << ",\"bytes_raw\":" << p.bytes_raw << ",\"messages\":" << p.messages
       << "}";
  }
  os << "]}\n";
}

}  // namespace lazygraph::sim
