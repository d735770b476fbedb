#include "testing/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "engine/run.hpp"
#include "graph/generators.hpp"
#include "plan/pipeline.hpp"
#include "sim/failure.hpp"
#include "util/rng.hpp"

namespace lazygraph::testing {

const char* to_string(ProgramKind p) {
  switch (p) {
    case ProgramKind::kSssp: return "sssp";
    case ProgramKind::kBfs: return "bfs";
    case ProgramKind::kConnectedComponents: return "cc";
    case ProgramKind::kKcore: return "kcore";
    case ProgramKind::kPagerank: return "pagerank";
    case ProgramKind::kWidestPath: return "widest";
    case ProgramKind::kDiffusion: return "diffusion";
  }
  return "?";
}

ProgramKind program_kind_from_string(const std::string& s) {
  for (int i = 0; i < kNumProgramKinds; ++i) {
    const ProgramKind p = static_cast<ProgramKind>(i);
    if (s == to_string(p)) return p;
  }
  throw std::invalid_argument("unknown program kind: " + s);
}

namespace {

partition::CutKind cut_from_string(const std::string& s) {
  using partition::CutKind;
  for (CutKind k : {CutKind::kRandom, CutKind::kGrid, CutKind::kCoordinated,
                    CutKind::kOblivious, CutKind::kHybrid}) {
    if (s == partition::to_string(k)) return k;
  }
  throw std::invalid_argument("unknown cut kind: " + s);
}

engine::IntervalPolicy interval_from_string(const std::string& s) {
  using engine::IntervalPolicy;
  for (IntervalPolicy p : {IntervalPolicy::kAdaptive, IntervalPolicy::kAlwaysLazy,
                           IntervalPolicy::kNeverLazy}) {
    if (s == engine::to_string(p)) return p;
  }
  throw std::invalid_argument("unknown interval policy: " + s);
}

engine::CommModePolicy comm_from_string(const std::string& s) {
  using engine::CommModePolicy;
  for (CommModePolicy p :
       {CommModePolicy::kAdaptive, CommModePolicy::kForceAllToAll,
        CommModePolicy::kForceMirrorsToMaster}) {
    if (s == engine::to_string(p)) return p;
  }
  throw std::invalid_argument("unknown comm policy: " + s);
}

}  // namespace

std::vector<std::uint32_t> Scenario::batch_lanes() const {
  std::vector<std::uint32_t> lanes;
  if (batch.empty()) return lanes;
  std::istringstream is(batch);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    // Digits only: stoul's sign/whitespace leniency must not leak into the
    // canonical text form.
    const bool digits =
        !tok.empty() && tok.find_first_not_of("0123456789") == std::string::npos;
    unsigned long v = 0;
    try {
      if (digits) v = std::stoul(tok);
    } catch (const std::exception&) {
      throw std::invalid_argument("batch lane out of range: '" + tok + "'");
    }
    if (!digits || v > 0xffffffffUL) {
      throw std::invalid_argument("malformed batch lane: '" + tok + "'");
    }
    lanes.push_back(static_cast<std::uint32_t>(v));
  }
  if (lanes.empty()) {
    throw std::invalid_argument("malformed batch list: '" + batch + "'");
  }
  return lanes;
}

std::string Scenario::join_lanes(const std::vector<std::uint32_t>& lanes) {
  std::ostringstream os;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (i) os << ',';
    os << lanes[i];
  }
  return os.str();
}

bool Scenario::needs_source() const {
  switch (program) {
    case ProgramKind::kSssp:
    case ProgramKind::kBfs:
    case ProgramKind::kWidestPath:
    case ProgramKind::kDiffusion:
      return true;
    default:
      return false;
  }
}

Graph Scenario::build_graph() const {
  Graph g(num_vertices, edges);
  if (program == ProgramKind::kConnectedComponents ||
      program == ProgramKind::kKcore) {
    return g.symmetrized();
  }
  return g;
}

std::string Scenario::summary() const {
  std::ostringstream os;
  os << "seed=" << seed << " V=" << num_vertices << " E=" << edges.size()
     << " P=" << machines << " cut=" << partition::to_string(cut)
     << " split=" << (split ? 1 : 0) << " prog=" << testing::to_string(program);
  if (needs_source()) os << " source=" << source;
  if (program == ProgramKind::kKcore) os << " k=" << kcore_k;
  if (program == ProgramKind::kPagerank || program == ProgramKind::kDiffusion) {
    os << " tol=" << tol;
  }
  os << " staleness=" << staleness
     << " interval=" << engine::to_string(interval_policy)
     << " comm=" << engine::to_string(comm_policy);
  if (has_pipeline()) {
    os << " pipeline=" << pipeline << " plan_engine=" << plan_engine;
  }
  if (has_failures()) os << " kill=" << kill;
  if (has_batch()) os << " batch=" << batch;
  return os.str();
}

void Scenario::to_text(std::ostream& os) const {
  // %.17g round-trips every finite double exactly.
  char buf[64];
  os << kHeader << "\n";
  os << "seed " << seed << "\n";
  os << "vertices " << num_vertices << "\n";
  os << "machines " << machines << "\n";
  os << "cut " << partition::to_string(cut) << "\n";
  os << "partition_seed " << partition_seed << "\n";
  os << "split " << (split ? 1 : 0) << "\n";
  os << "program " << testing::to_string(program) << "\n";
  os << "source " << source << "\n";
  os << "kcore_k " << kcore_k << "\n";
  std::snprintf(buf, sizeof buf, "%.17g", tol);
  os << "tol " << buf << "\n";
  std::snprintf(buf, sizeof buf, "%.17g", alpha);
  os << "alpha " << buf << "\n";
  os << "staleness " << staleness << "\n";
  os << "interval " << engine::to_string(interval_policy) << "\n";
  os << "comm " << engine::to_string(comm_policy) << "\n";
  // Pipeline text is one space-free token by construction (the plan grammar
  // rejects whitespace), so the keyed line format stays parseable. "-" is
  // the explicit "no pipeline" sentinel.
  os << "pipeline " << (pipeline.empty() ? "-" : pipeline) << "\n";
  os << "plan_engine " << plan_engine << "\n";
  // Failure-plan text ("m@k[:r]", comma-joined) is space-free by
  // construction; "-" is the explicit "no failures" sentinel.
  os << "kill " << (kill.empty() ? "-" : kill) << "\n";
  // Batch lanes are a comma-joined integer list (space-free); "-" is the
  // explicit "no batch" sentinel.
  os << "batch " << (batch.empty() ? "-" : batch) << "\n";
  os << "edges " << edges.size() << "\n";
  for (const Edge& e : edges) {
    std::snprintf(buf, sizeof buf, "%.9g", static_cast<double>(e.weight));
    os << e.src << " " << e.dst << " " << buf << "\n";
  }
}

std::string Scenario::to_text() const {
  std::ostringstream os;
  to_text(os);
  return os.str();
}

Scenario Scenario::from_text(std::istream& is) {
  auto fail = [](const std::string& why) {
    throw std::invalid_argument("scenario parse error: " + why);
  };
  std::string line;
  if (!std::getline(is, line)) fail("missing scenario header");
  // One format: dumps are replayed at the commit that wrote them.
  if (line != kHeader) {
    fail("unsupported header '" + line + "' (expected '" +
         std::string(kHeader) + "')");
  }
  Scenario s;
  auto expect_key = [&](const std::string& key) -> std::string {
    std::string k, v;
    if (!(is >> k >> v) || k != key) fail("expected key '" + key + "'");
    return v;
  };
  s.seed = std::stoull(expect_key("seed"));
  s.num_vertices = static_cast<vid_t>(std::stoul(expect_key("vertices")));
  s.machines = static_cast<machine_t>(std::stoul(expect_key("machines")));
  s.cut = cut_from_string(expect_key("cut"));
  s.partition_seed = std::stoull(expect_key("partition_seed"));
  s.split = expect_key("split") != "0";
  s.program = program_kind_from_string(expect_key("program"));
  s.source = static_cast<vid_t>(std::stoul(expect_key("source")));
  s.kcore_k = static_cast<std::uint32_t>(std::stoul(expect_key("kcore_k")));
  s.tol = std::stod(expect_key("tol"));
  s.alpha = std::stod(expect_key("alpha"));
  s.staleness = static_cast<std::uint32_t>(std::stoul(expect_key("staleness")));
  s.interval_policy = interval_from_string(expect_key("interval"));
  s.comm_policy = comm_from_string(expect_key("comm"));
  const std::string p = expect_key("pipeline");
  if (p != "-") {
    s.pipeline = plan::Pipeline::parse(p).to_string();  // validates
  }
  s.plan_engine = expect_key("plan_engine");
  engine::engine_kind_from_string(s.plan_engine);  // validates; throws
  const std::string k = expect_key("kill");
  if (k != "-") {
    s.kill = sim::FailurePlan::parse(k).to_string();  // validates
  }
  const std::string b = expect_key("batch");
  if (b != "-") {
    s.batch = b;
    const auto lanes = s.batch_lanes();  // validates; throws
    if (lanes.size() + 1 > 16) fail("more than 16 batch lanes");
    s.batch = join_lanes(lanes);  // canonical form
  }
  const std::uint64_t num_edges = std::stoull(expect_key("edges"));
  s.edges.reserve(num_edges);
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    Edge e;
    double w = 1.0;
    if (!(is >> e.src >> e.dst >> w)) fail("truncated edge list");
    if (e.src >= s.num_vertices || e.dst >= s.num_vertices) {
      fail("edge endpoint out of range");
    }
    e.weight = static_cast<float>(w);
    s.edges.push_back(e);
  }
  return s;
}

Scenario Scenario::from_text(const std::string& text) {
  std::istringstream is(text);
  return from_text(is);
}

namespace {

/// Random graph from one of the generator families plus degenerate shapes.
Graph random_graph(Rng& rng) {
  const gen::WeightSpec unit{1.0f, 1.0f};
  const gen::WeightSpec varied{0.5f, 9.5f};
  const gen::WeightSpec w = rng.below(2) ? varied : unit;
  switch (rng.below(9)) {
    case 0: {  // power-law (social/web analogue)
      const vid_t scale = static_cast<vid_t>(rng.range(4, 7));
      return gen::rmat(scale, rng.range(2, 8), 0.57, 0.19, 0.19, rng(), w);
    }
    case 1: {  // power-law with exact edge count
      const vid_t n = static_cast<vid_t>(rng.range(16, 180));
      return gen::chung_lu(n, n * rng.range(1, 4),
                           2.1 + 0.8 * rng.uniform(), rng(), w);
    }
    case 2:  // road-network analogue (long diameter)
      return gen::road_lattice(static_cast<vid_t>(rng.range(3, 12)),
                               static_cast<vid_t>(rng.range(3, 12)),
                               0.5 * rng.uniform(), rng(), w);
    case 3: {
      const vid_t n = static_cast<vid_t>(rng.range(8, 200));
      return gen::erdos_renyi(n, n * rng.range(0, 4), rng(), w);
    }
    case 4: return gen::path(static_cast<vid_t>(rng.range(2, 60)), w);
    case 5: return gen::cycle(static_cast<vid_t>(rng.range(2, 60)), w);
    case 6: return gen::star(static_cast<vid_t>(rng.range(3, 80)),
                             /*bidirectional=*/rng.below(2) != 0);
    case 7: return gen::complete(static_cast<vid_t>(rng.range(2, 12)));
    default: {  // tiny arbitrary edge list, self-loops allowed
      const vid_t n = static_cast<vid_t>(rng.range(1, 8));
      std::vector<Edge> edges;
      const int m = static_cast<int>(rng.range(0, 12));
      for (int i = 0; i < m; ++i) {
        edges.push_back({static_cast<vid_t>(rng.below(n)),
                         static_cast<vid_t>(rng.below(n)),
                         static_cast<float>(1.0 + rng.below(8))});
      }
      return Graph(n, std::move(edges));
    }
  }
}

}  // namespace

Scenario make_scenario(std::uint64_t corpus_seed, std::uint64_t index) {
  Rng rng(mix64(corpus_seed ^ mix64(index + 0x51ca7eb1)));
  Scenario s;
  s.seed = corpus_seed;

  // --- graph ---
  if (rng.below(40) == 0) {
    // The empty graph and the edgeless graph: every engine must terminate.
    s.num_vertices = static_cast<vid_t>(rng.range(0, 3));
  } else {
    Graph g = random_graph(rng);
    s.num_vertices = g.num_vertices();
    s.edges = g.edges();
    if (rng.below(4) == 0 && s.num_vertices > 0) {
      // Self-loops: legal in the user view, must not confuse replication.
      const int loops = static_cast<int>(rng.range(1, 3));
      for (int i = 0; i < loops; ++i) {
        const vid_t v = static_cast<vid_t>(rng.below(s.num_vertices));
        s.edges.push_back({v, v, 1.0f});
      }
    }
    if (rng.below(4) == 0) {
      // Isolated vertices: replicated nowhere, still need master results.
      s.num_vertices += static_cast<vid_t>(rng.range(1, 8));
    }
  }

  // --- partitioning ---
  switch (rng.below(8)) {
    case 0: s.machines = 1; break;  // degenerate: no replication at all
    case 1:  // more machines than vertices
      s.machines = static_cast<machine_t>(
          std::min<std::uint64_t>(s.num_vertices + rng.range(1, 5), 16));
      break;
    default:
      s.machines = static_cast<machine_t>(rng.range(2, 12));
  }
  using partition::CutKind;
  constexpr CutKind kCuts[] = {CutKind::kRandom, CutKind::kGrid,
                               CutKind::kCoordinated, CutKind::kOblivious,
                               CutKind::kHybrid};
  s.cut = kCuts[rng.below(5)];
  s.partition_seed = rng();
  s.split = rng.below(10) < 3;

  // --- program ---
  if (s.num_vertices == 0) {
    // Source-based programs need a source vertex.
    constexpr ProgramKind kSourceless[] = {ProgramKind::kConnectedComponents,
                                           ProgramKind::kKcore,
                                           ProgramKind::kPagerank};
    s.program = kSourceless[rng.below(3)];
  } else {
    s.program = static_cast<ProgramKind>(rng.below(kNumProgramKinds));
    s.source = static_cast<vid_t>(rng.below(s.num_vertices));
  }
  s.kcore_k = static_cast<std::uint32_t>(rng.range(1, 5));
  s.tol = std::pow(10.0, -static_cast<double>(rng.range(3, 5)));
  s.alpha = 0.2 + 0.5 * rng.uniform();

  // --- engine knobs ---
  s.staleness = static_cast<std::uint32_t>(
      rng.below(4) == 0 ? rng.range(16, 64) : rng.range(1, 12));
  using engine::IntervalPolicy;
  constexpr IntervalPolicy kPolicies[] = {
      IntervalPolicy::kAdaptive, IntervalPolicy::kAlwaysLazy,
      IntervalPolicy::kNeverLazy};
  s.interval_policy = kPolicies[rng.below(3)];
  using engine::CommModePolicy;
  constexpr CommModePolicy kComms[] = {CommModePolicy::kAdaptive,
                                       CommModePolicy::kForceAllToAll,
                                       CommModePolicy::kForceMirrorsToMaster};
  s.comm_policy = kComms[rng.below(3)];

  // --- pipeline (plan layer) ---
  // About a quarter of scenarios exercise the record-then-lower path; the
  // oracle then checks the composed lowering against the sequential
  // reference lowering instead of the single-program differential matrix.
  if (rng.below(4) == 0) {
    plan::Pipeline p;
    const vid_t src = s.source;  // in range whenever num_vertices > 0
    // Templates 0-2 are sourceless so the empty graph can draw them too.
    switch (s.num_vertices == 0 ? rng.below(3) : rng.below(8)) {
      case 0: p.kcore(s.kcore_k).cc(); break;
      case 1: p.cc().pagerank(s.tol); break;
      case 2: p.cc().kcore(s.kcore_k); break;
      case 3: p.cc(src).pagerank(s.tol); break;
      case 4: p.bfs(src).cc(); break;
      case 5: p.pagerank(s.tol).pagerank(s.tol / 10.0); break;  // warm refine
      case 6: p.pagerank(s.tol).sssp(src); break;
      default: p.kcore(s.kcore_k).cc().pagerank(s.tol); break;
    }
    s.pipeline = p.to_string();
    using engine::EngineKind;
    constexpr EngineKind kPlanEngines[] = {
        EngineKind::kSync, EngineKind::kLazyBlock, EngineKind::kLazyVertex};
    s.plan_engine = engine::to_string(kPlanEngines[rng.below(3)]);
  }

  // --- fault injection ---
  // About a quarter of non-pipeline scenarios inject a machine failure; the
  // oracle then re-runs every engine with the kill installed and requires
  // the recovered run to converge bit-identically to the failure-free one.
  // Pipeline scenarios are exempt: the plan executor reuses one cluster
  // across stages, so a per-run failure plan would re-fire every stage.
  if (!s.has_pipeline() && rng.below(4) == 0) {
    s.kill = sim::FailurePlan::draw(rng(), s.machines).to_string();
  }

  // --- serving-layer batch lanes ---
  // About a quarter of eligible scenarios (per-query
  // parameterized program, no pipeline, no kill) add 1-3 extra lanes; the
  // oracle then packs all lanes into one batched engine run and checks each
  // against its solo run instead of the four-engine differential matrix.
  const bool batchable =
      (s.needs_source() || s.program == ProgramKind::kKcore) &&
      s.num_vertices > 0;
  if (batchable && !s.has_pipeline() && !s.has_failures() &&
      rng.below(4) == 0) {
    std::vector<std::uint32_t> lanes;
    const int extra = static_cast<int>(rng.range(1, 3));
    for (int i = 0; i < extra; ++i) {
      lanes.push_back(s.program == ProgramKind::kKcore
                          ? static_cast<std::uint32_t>(rng.range(1, 5))
                          : static_cast<std::uint32_t>(
                                rng.below(s.num_vertices)));
    }
    s.batch = Scenario::join_lanes(lanes);
  }
  return s;
}

}  // namespace lazygraph::testing
