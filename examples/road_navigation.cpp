// Road navigation on the road-USA analogue, written against the plan API:
// record `bfs(source) |> sssp(source)` and lower it once. BFS discovers the
// reachable intersections in cheap integer hops; the executor carries that
// reached set as SSSP's initial frontier, so the weighted pass never scans
// the unreachable part of the map. Lowered twice — once per engine — the
// second lowering reuses every partition and build from the first through
// the artifact cache.
//
//   ./road_navigation [--machines=16] [--scale=0.2] [--source=-1]
#include <iostream>
#include <limits>

#include "lazygraph.hpp"

using namespace lazygraph;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  opts.reject_unknown({"machines", "scale", "source"});
  const auto machines =
      static_cast<machine_t>(opts.get_int("machines", 16));
  const double scale = opts.get_double("scale", 0.2);

  const Graph g =
      datasets::make(datasets::spec_by_name("roadusa-like"), scale);
  std::cout << "road network: " << g.num_vertices() << " intersections, "
            << g.num_edges() << " road segments\n";

  vid_t source;
  if (opts.has("source")) {
    source = static_cast<vid_t>(opts.get_int("source", 0));
    require(source < g.num_vertices(), "source out of range");
  } else {
    source = g.num_vertices() / 2;  // middle of the map
  }

  plan::Pipeline pipe;
  pipe.bfs(source).sssp(source);
  std::cout << "pipeline: " << pipe.to_string() << "\n\n";

  plan::Executor ex(g, machines,
                    {.kind = partition::CutKind::kCoordinated, .seed = 7},
                    &partition::ArtifactCache::global());

  Table t({"engine", "stage", "scope", "frontier", "sim-time(s)",
           "global-syncs", "supersteps"});
  std::vector<algos::SSSP::VData> dist;
  for (const auto kind :
       {engine::EngineKind::kSync, engine::EngineKind::kLazyBlock}) {
    plan::LowerOptions lopts;
    lopts.default_engine = kind;
    const auto res = ex.run(pipe, lopts);
    if (!res.converged) {
      std::cout << "pipeline did not converge\n";
      return 1;
    }
    std::cout << engine::to_string(kind) << ": " << res.engine_runs
              << " engine run(s), " << res.partitions_computed
              << " new partition(s), " << res.builds_computed
              << " new build(s)\n";
    for (const auto& r : res.stages) {
      t.add_row({engine::to_string(kind), r.stage, Table::num(r.scope_size),
                 Table::num(r.carried_frontier),
                 Table::num(r.sim_seconds, 4), Table::num(r.global_syncs),
                 Table::num(r.supersteps)});
    }
    if (kind == engine::EngineKind::kLazyBlock) {
      dist = res.data_as<algos::SSSP>(1);
    }
  }
  std::cout << "\n";
  t.print(std::cout);

  // Validate against Dijkstra and summarize reachability. Intersections
  // outside the carried BFS scope were never initialized and keep their
  // infinite distance — exactly what Dijkstra reports for them.
  const auto expect = reference::sssp(g, source);
  std::size_t reachable = 0, mismatches = 0;
  double max_dist = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (dist[v].dist != expect[v]) ++mismatches;
    if (expect[v] < std::numeric_limits<double>::infinity()) {
      ++reachable;
      max_dist = std::max(max_dist, expect[v]);
    }
  }
  std::cout << "\nfrom intersection " << source << ": " << reachable << "/"
            << g.num_vertices() << " reachable, farthest at distance "
            << Table::num(max_dist, 1) << "\n";
  std::cout << (mismatches == 0 ? "distances verified against Dijkstra\n"
                                : "MISMATCH vs Dijkstra!\n");
  return mismatches == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
