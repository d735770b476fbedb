#include "sim/trace.hpp"

#include <algorithm>
#include <cctype>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "sim/netmodel.hpp"
#include "util/common.hpp"

namespace lazygraph::sim {

namespace {

constexpr struct {
  SpanKind kind;
  const char* name;
} kSpanKindNames[] = {
    {SpanKind::kLocalStage, "local_stage"},
    {SpanKind::kApplySweep, "apply_sweep"},
    {SpanKind::kCoherencyExchange, "coherency_exchange"},
    {SpanKind::kBarrier, "barrier"},
    {SpanKind::kEagerGather, "eager_gather"},
    {SpanKind::kEagerBroadcast, "eager_broadcast"},
    {SpanKind::kEagerScatter, "eager_scatter"},
    {SpanKind::kAsyncRound, "async_round"},
    {SpanKind::kFineGrained, "fine_grained"},
    {SpanKind::kCompute, "compute"},
    {SpanKind::kExchange, "exchange"},
    {SpanKind::kGuard, "guard"},
    {SpanKind::kRecovery, "recovery"},
    {SpanKind::kIngest, "ingest"},
    {SpanKind::kPartition, "partition"},
    {SpanKind::kBuild, "build"},
    {SpanKind::kPlanLower, "plan_lower"},
    {SpanKind::kPlanCarry, "plan_carry"},
    {SpanKind::kServeQueue, "serve_queue"},
    {SpanKind::kServeQuery, "serve_query"},
};

std::string mode_name(int mode) {
  if (mode < 0) return "";
  return mode == static_cast<int>(CommMode::kAllToAll) ? "a2a" : "m2m";
}

// Round-trip-exact double formatting (shortest form via max_digits10).
std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// --- minimal parser for the flat JSON objects write_jsonl emits ---

struct JsonObject {
  std::map<std::string, std::string> fields;  // raw value text (unquoted)

  bool has(const std::string& k) const { return fields.count(k) != 0; }
  std::string str(const std::string& k) const {
    auto it = fields.find(k);
    return it == fields.end() ? "" : it->second;
  }
  double num(const std::string& k, double def = 0.0) const {
    auto it = fields.find(k);
    return it == fields.end() ? def : std::stod(it->second);
  }
  std::uint64_t u64(const std::string& k, std::uint64_t def = 0) const {
    auto it = fields.find(k);
    return it == fields.end() ? def : std::stoull(it->second);
  }
  bool boolean(const std::string& k, bool def = false) const {
    auto it = fields.find(k);
    return it == fields.end() ? def : it->second == "true";
  }
};

JsonObject parse_flat_object(const std::string& line) {
  JsonObject obj;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
  };
  const auto expect = [&](char c) {
    skip_ws();
    require(i < line.size() && line[i] == c,
            std::string("trace: malformed JSONL, expected '") + c + "'");
    ++i;
  };
  const auto parse_string = [&]() {
    expect('"');
    std::string out;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;  // unescape
      out += line[i++];
    }
    expect('"');
    return out;
  };

  expect('{');
  skip_ws();
  if (i < line.size() && line[i] == '}') return obj;
  for (;;) {
    const std::string key = parse_string();
    expect(':');
    skip_ws();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      value = parse_string();
    } else {
      while (i < line.size() && line[i] != ',' && line[i] != '}') {
        value += line[i++];
      }
      while (!value.empty() &&
             std::isspace(static_cast<unsigned char>(value.back()))) {
        value.pop_back();
      }
    }
    obj.fields[key] = value;
    skip_ws();
    require(i < line.size(), "trace: malformed JSONL, unterminated object");
    if (line[i] == '}') break;
    expect(',');
  }
  return obj;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

const char* to_string(SpanKind k) {
  for (const auto& [kind, name] : kSpanKindNames) {
    if (kind == k) return name;
  }
  return "?";
}

SpanKind span_kind_from_string(const std::string& s) {
  for (const auto& [kind, name] : kSpanKindNames) {
    if (s == name) return kind;
  }
  throw std::invalid_argument("unknown span kind: " + s);
}

void Tracer::set_run_info(std::string engine, std::string algo) {
  engine_ = std::move(engine);
  if (!algo.empty()) algo_ = std::move(algo);
}

void Tracer::record_setup(SetupSpan s) {
  s.start_seconds = total_setup_seconds();
  setup_spans_.push_back(s);
}

void Tracer::clear() {
  spans_.clear();
  snapshots_.clear();
  setup_spans_.clear();
  recovery_spans_.clear();
  engine_.clear();
  algo_.clear();
}

double Tracer::total_span_seconds() const {
  double total = 0.0;
  for (const TraceSpan& s : spans_) total += s.duration_seconds;
  return total;
}

double Tracer::total_setup_seconds() const {
  double total = 0.0;
  for (const SetupSpan& s : setup_spans_) total += s.duration_seconds;
  return total;
}

void Tracer::write_jsonl(std::ostream& os) const {
  os << "{\"record\":\"run\",\"engine\":" << quote(engine_)
     << ",\"algo\":" << quote(algo_) << ",\"spans\":" << spans_.size()
     << ",\"supersteps\":" << snapshots_.size()
     << ",\"setup\":" << setup_spans_.size()
     << ",\"recoveries\":" << recovery_spans_.size() << "}\n";
  for (const SetupSpan& s : setup_spans_) {
    os << "{\"record\":\"setup\",\"kind\":\"" << to_string(s.kind)
       << "\",\"start\":" << fmt(s.start_seconds) << ",\"seconds\":"
       << fmt(s.duration_seconds) << ",\"items\":" << s.items
       << ",\"cache_hit\":" << (s.cache_hit ? "true" : "false") << "}\n";
  }
  for (const TraceSpan& s : spans_) {
    os << "{\"record\":\"span\",\"kind\":\"" << to_string(s.kind)
       << "\",\"superstep\":" << s.superstep << ",\"start\":"
       << fmt(s.start_seconds) << ",\"seconds\":" << fmt(s.duration_seconds)
       << ",\"machines\":" << s.machines << ",\"min_work\":" << s.min_work
       << ",\"max_work\":" << s.max_work << ",\"mean_work\":"
       << fmt(s.mean_work) << ",\"bytes\":" << s.bytes << ",\"raw_bytes\":"
       << s.raw_bytes << ",\"messages\":"
       << s.messages << ",\"mode\":" << quote(mode_name(s.comm_mode))
       << ",\"t_a2a\":" << fmt(s.prediction.t_a2a_seconds) << ",\"t_m2m\":"
       << fmt(s.prediction.t_m2m_seconds) << "}\n";
  }
  for (const RecoverySpan& s : recovery_spans_) {
    os << "{\"record\":\"recovery\",\"superstep\":" << s.superstep
       << ",\"machine\":" << s.machine << ",\"down_barriers\":"
       << s.down_barriers << ",\"mirror_bytes\":" << s.mirror_bytes
       << ",\"log_bytes\":" << s.log_bytes << ",\"rebuild_edges\":"
       << s.rebuild_edges << ",\"mirror_exact\":" << s.mirror_exact
       << ",\"seconds\":" << fmt(s.seconds) << "}\n";
  }
  for (const SuperstepSnapshot& s : snapshots_) {
    os << "{\"record\":\"superstep\",\"superstep\":" << s.superstep
       << ",\"active\":" << s.active_vertices << ",\"lazy_on\":"
       << (s.lazy_on ? "true" : "false") << ",\"trend\":" << fmt(s.trend)
       << ",\"t\":" << fmt(s.measured_t_seconds) << ",\"mode\":"
       << quote(mode_name(s.comm_mode)) << ",\"t_a2a\":"
       << fmt(s.prediction.t_a2a_seconds) << ",\"t_m2m\":"
       << fmt(s.prediction.t_m2m_seconds) << "}\n";
  }
}

Tracer Tracer::read_jsonl(std::istream& is) {
  Tracer t;
  std::string line;
  const auto parse_mode = [](const JsonObject& o) {
    const std::string m = o.str("mode");
    if (m == "a2a") return static_cast<int>(CommMode::kAllToAll);
    if (m == "m2m") return static_cast<int>(CommMode::kMirrorsToMaster);
    return -1;
  };
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const JsonObject o = parse_flat_object(line);
    const std::string record = o.str("record");
    if (record == "run") {
      t.set_run_info(o.str("engine"), o.str("algo"));
    } else if (record == "span") {
      TraceSpan s;
      s.kind = span_kind_from_string(o.str("kind"));
      s.superstep = o.u64("superstep");
      s.start_seconds = o.num("start");
      s.duration_seconds = o.num("seconds");
      s.machines = static_cast<std::uint32_t>(o.u64("machines"));
      s.min_work = o.u64("min_work");
      s.max_work = o.u64("max_work");
      s.mean_work = o.num("mean_work");
      s.bytes = o.u64("bytes");
      s.raw_bytes = o.u64("raw_bytes");  // absent in pre-codec traces -> 0
      s.messages = o.u64("messages");
      s.comm_mode = parse_mode(o);
      s.prediction = {o.num("t_a2a", -1.0), o.num("t_m2m", -1.0)};
      t.record_span(s);
    } else if (record == "superstep") {
      SuperstepSnapshot s;
      s.superstep = o.u64("superstep");
      s.active_vertices = o.u64("active");
      s.lazy_on = o.boolean("lazy_on");
      s.trend = o.num("trend");
      s.measured_t_seconds = o.num("t");
      s.comm_mode = parse_mode(o);
      s.prediction = {o.num("t_a2a", -1.0), o.num("t_m2m", -1.0)};
      t.record_superstep(s);
    } else if (record == "recovery") {
      RecoverySpan s;
      s.superstep = o.u64("superstep");
      s.machine = static_cast<std::uint32_t>(o.u64("machine"));
      s.down_barriers = static_cast<std::uint32_t>(o.u64("down_barriers"));
      s.mirror_bytes = o.u64("mirror_bytes");
      s.log_bytes = o.u64("log_bytes");
      s.rebuild_edges = o.u64("rebuild_edges");
      s.mirror_exact = o.u64("mirror_exact");
      s.seconds = o.num("seconds");
      t.record_recovery(s);
    } else if (record == "setup") {
      SetupSpan s;
      s.kind = span_kind_from_string(o.str("kind"));
      s.start_seconds = o.num("start");
      s.duration_seconds = o.num("seconds");
      s.items = o.u64("items");
      s.cache_hit = o.boolean("cache_hit");
      // Direct push (not record_setup): preserve recorded starts exactly so
      // the round-trip is bit-faithful even for hand-edited files.
      t.setup_spans_.push_back(s);
    } else {
      throw std::invalid_argument("trace: unknown record type: " + record);
    }
  }
  return t;
}

namespace {

std::vector<std::string> span_row(std::size_t index, const TraceSpan& s) {
  const double skew =
      s.mean_work > 0.0 ? static_cast<double>(s.max_work) / s.mean_work : 0.0;
  std::vector<std::string> row = {
      Table::num(index),
      to_string(s.kind),
      Table::num(s.superstep),
      Table::num(s.start_seconds, 6),
      Table::num(s.duration_seconds, 6),
      Table::num(s.max_work),
      s.machines > 0 ? Table::num(skew, 2) : "-",
      Table::num(s.bytes),
      Table::num(s.messages),
      mode_name(s.comm_mode).empty() ? "-" : mode_name(s.comm_mode),
  };
  return row;
}

const std::vector<std::string> kSpanHeader = {
    "#",     "kind",  "superstep", "start(s)", "dur(s)",
    "max_w", "skew",  "bytes",     "msgs",     "mode"};

}  // namespace

Table Tracer::spans_table() const {
  Table t(kSpanHeader);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    t.add_row(span_row(i, spans_[i]));
  }
  return t;
}

Table Tracer::top_spans_table(std::size_t k) const {
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return spans_[a].duration_seconds > spans_[b].duration_seconds;
  });
  Table t(kSpanHeader);
  for (std::size_t i = 0; i < std::min(k, order.size()); ++i) {
    t.add_row(span_row(order[i], spans_[order[i]]));
  }
  return t;
}

Table Tracer::kind_summary_table() const {
  struct Agg {
    std::uint64_t count = 0;
    double seconds = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t raw_bytes = 0;
    std::uint64_t messages = 0;
  };
  std::map<SpanKind, Agg> agg;
  double total = 0.0;
  for (const TraceSpan& s : spans_) {
    Agg& a = agg[s.kind];
    ++a.count;
    a.seconds += s.duration_seconds;
    a.bytes += s.bytes;
    a.raw_bytes += s.raw_bytes;
    a.messages += s.messages;
    total += s.duration_seconds;
  }
  Table t({"kind", "spans", "seconds", "share", "bytes", "raw_bytes", "msgs"});
  for (const auto& [kind, a] : agg) {
    t.add_row({to_string(kind), Table::num(a.count), Table::num(a.seconds, 6),
               Table::num(total > 0.0 ? 100.0 * a.seconds / total : 0.0, 1) +
                   "%",
               Table::num(a.bytes), Table::num(a.raw_bytes),
               Table::num(a.messages)});
  }
  return t;
}

Table Tracer::setup_table() const {
  Table t({"stage", "wall(s)", "items", "cached"});
  for (const SetupSpan& s : setup_spans_) {
    t.add_row({to_string(s.kind), Table::num(s.duration_seconds, 6),
               Table::num(s.items), s.cache_hit ? "hit" : "miss"});
  }
  return t;
}

Table Tracer::recoveries_table() const {
  Table t({"superstep", "machine", "down", "mirror_B", "log_B", "edges",
           "exact", "seconds"});
  for (const RecoverySpan& s : recovery_spans_) {
    t.add_row({Table::num(s.superstep), Table::num(s.machine),
               Table::num(s.down_barriers), Table::num(s.mirror_bytes),
               Table::num(s.log_bytes), Table::num(s.rebuild_edges),
               Table::num(s.mirror_exact), Table::num(s.seconds, 6)});
  }
  return t;
}

Table Tracer::supersteps_table() const {
  Table t({"superstep", "active", "lazy_on", "trend", "T(s)", "mode", "t_a2a",
           "t_m2m"});
  for (const SuperstepSnapshot& s : snapshots_) {
    t.add_row({Table::num(s.superstep), Table::num(s.active_vertices),
               s.lazy_on ? "on" : "off", Table::num(s.trend, 4),
               Table::num(s.measured_t_seconds, 6),
               mode_name(s.comm_mode).empty() ? "-" : mode_name(s.comm_mode),
               s.prediction.t_a2a_seconds < 0.0
                   ? "-"
                   : Table::num(s.prediction.t_a2a_seconds, 6),
               s.prediction.t_m2m_seconds < 0.0
                   ? "-"
                   : Table::num(s.prediction.t_m2m_seconds, 6)});
  }
  return t;
}

}  // namespace lazygraph::sim
