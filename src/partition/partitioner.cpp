#include "partition/partitioner.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace lazygraph::partition {

const char* to_string(CutKind kind) {
  switch (kind) {
    case CutKind::kRandom: return "random";
    case CutKind::kGrid: return "grid";
    case CutKind::kCoordinated: return "coordinated";
    case CutKind::kOblivious: return "oblivious";
    case CutKind::kHybrid: return "hybrid";
  }
  return "?";
}

CutKind cut_kind_from_string(const std::string& s) {
  for (CutKind k : {CutKind::kRandom, CutKind::kGrid, CutKind::kCoordinated,
                    CutKind::kOblivious, CutKind::kHybrid}) {
    if (s == to_string(k)) return k;
  }
  throw std::invalid_argument("unknown cut: " + s);
}

namespace {

machine_t hash_to_machine(std::uint64_t key, std::uint64_t seed,
                          machine_t machines) {
  return static_cast<machine_t>(mix64(key ^ mix64(seed)) % machines);
}

// Runs body(i) over every edge index, split into `threads` contiguous
// ranges. Each edge writes only its own assignment slot (pure per-edge
// hashes), so any decomposition yields bit-identical output.
void per_edge_parallel(const Graph& g, std::size_t threads,
                       const std::function<void(std::size_t)>& body) {
  parallel_ranges(g.num_edges(), resolve_threads(threads),
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) body(i);
                  });
}

Assignment random_cut(const Graph& g, machine_t machines, std::uint64_t seed,
                      std::size_t threads) {
  Assignment a;
  a.edge_machine.resize(g.num_edges());
  per_edge_parallel(g, threads, [&](std::size_t i) {
    const Edge& e = g.edges()[i];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
    a.edge_machine[i] = hash_to_machine(key, seed, machines);
  });
  return a;
}

// 2D grid-cut: machines form an r x c rectangle; vertex v hashes to a shard,
// and edge (u, v) lands on machine (row(shard(u)), col(shard(v))). Bounds the
// replication factor of a vertex by r + c.
Assignment grid_cut(const Graph& g, machine_t machines, std::uint64_t seed,
                    std::size_t threads) {
  machine_t rows = static_cast<machine_t>(std::sqrt(machines));
  while (machines % rows != 0) --rows;
  const machine_t cols = machines / rows;
  Assignment a;
  a.edge_machine.resize(g.num_edges());
  per_edge_parallel(g, threads, [&](std::size_t i) {
    const Edge& e = g.edges()[i];
    const machine_t r = hash_to_machine(e.src, seed, rows);
    const machine_t c = hash_to_machine(e.dst, seed + 17, cols);
    a.edge_machine[i] = r * cols + c;
  });
  return a;
}

// Shared state of one greedy placement stream: per-vertex replica masks
// (machines <= 64 so a bitmask suffices) and per-machine loads.
struct GreedyState {
  std::vector<std::uint64_t> mask;
  std::vector<std::uint64_t> load;
  Rng rng;
  GreedyState(vid_t vertices, machine_t machines, std::uint64_t seed)
      : mask(vertices, 0), load(machines, 0), rng(seed) {}
};

// PowerGraph's greedy placement rules:
//   1. endpoints share machines  -> least-loaded shared machine
//   2. both placed, disjoint     -> least-loaded machine of the endpoint
//                                   with more remaining unplaced edges
//   3. one endpoint placed       -> least-loaded machine of that endpoint
//   4. neither placed            -> least-loaded machine overall
machine_t greedy_place(const Edge& e, machine_t machines, GreedyState& st,
                       const std::vector<std::uint32_t>& remaining) {
  // Walks only the candidate bits, ascending; the strict < keeps the lowest
  // id among equally loaded machines.
  auto least_loaded_in = [&](std::uint64_t candidates) {
    assert(candidates != 0);
    auto best = static_cast<machine_t>(std::countr_zero(candidates));
    for (std::uint64_t rest = candidates & (candidates - 1); rest != 0;
         rest &= rest - 1) {
      const auto m = static_cast<machine_t>(std::countr_zero(rest));
      if (st.load[m] < st.load[best]) best = m;
    }
    return best;
  };
  const std::uint64_t all =
      machines == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << machines) - 1;

  const std::uint64_t ms = st.mask[e.src], md = st.mask[e.dst];
  machine_t m;
  if (ms & md) {
    m = least_loaded_in(ms & md);
  } else if (ms && md) {
    m = least_loaded_in(remaining[e.src] >= remaining[e.dst] ? ms : md);
  } else if (ms || md) {
    m = least_loaded_in(ms | md);
  } else {
    m = least_loaded_in(all);
    // random tie-break among equally empty machines
    if (st.load[m] == 0) m = static_cast<machine_t>(st.rng.below(machines));
  }
  ++st.load[m];
  st.mask[e.src] |= std::uint64_t{1} << m;
  st.mask[e.dst] |= std::uint64_t{1} << m;
  return m;
}

// PowerGraph loads the input as P contiguous file chunks consumed by P
// parallel loaders. Coordinated-cut loaders share the replica table; model
// that stream by interleaving the P chunks round-robin over one shared
// GreedyState. A spatially ordered input (road networks) then keeps each
// chunk's region on its own machine (contiguous partitions, low lambda),
// while a single global stream would let rule 1 collapse the whole graph
// onto one machine and a global shuffle would destroy the spatial contiguity
// real loaders preserve.
Assignment coordinated_cut(const Graph& g, machine_t machines,
                           std::uint64_t seed) {
  Assignment a;
  a.edge_machine.resize(g.num_edges());
  std::vector<std::uint32_t> remaining(g.num_vertices(), 0);
  for (const Edge& e : g.edges()) {
    ++remaining[e.src];
    ++remaining[e.dst];
  }
  GreedyState st(g.num_vertices(), machines, seed);

  const std::uint64_t chunk =
      ceil_div<std::uint64_t>(g.num_edges(), machines);
  for (std::uint64_t s = 0; s < chunk; ++s) {
    for (machine_t c = 0; c < machines; ++c) {
      const std::uint64_t i = static_cast<std::uint64_t>(c) * chunk + s;
      if (i >= g.num_edges()) continue;
      const Edge& e = g.edges()[i];
      a.edge_machine[i] = greedy_place(e, machines, st, remaining);
      --remaining[e.src];
      --remaining[e.dst];
    }
  }
  return a;
}

// Oblivious-cut: each loader runs the same greedy over its own chunk with a
// *private* replica table, load view, and remaining-degree view (no
// cross-loader coordination at all), as in PowerGraph's oblivious variant —
// cheaper to build, higher lambda. Full independence makes the P loader
// streams embarrassingly parallel: the chunk decomposition is keyed to the
// machine count (never the thread count), so any `threads` value produces
// the byte-identical assignment.
Assignment oblivious_cut(const Graph& g, machine_t machines,
                         std::uint64_t seed, std::size_t threads) {
  Assignment a;
  a.edge_machine.resize(g.num_edges());
  const std::uint64_t chunk =
      ceil_div<std::uint64_t>(g.num_edges(), machines);
  const auto run_loader = [&](machine_t c) {
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * chunk;
    const std::uint64_t end = std::min<std::uint64_t>(begin + chunk,
                                                      g.num_edges());
    if (begin >= end) return;
    // A loader only ever sees its own chunk, so its remaining-degree view
    // counts that chunk's endpoints (an uncoordinated loader cannot know
    // degrees accumulated by its peers).
    std::vector<std::uint32_t> remaining(g.num_vertices(), 0);
    for (std::uint64_t i = begin; i < end; ++i) {
      ++remaining[g.edges()[i].src];
      ++remaining[g.edges()[i].dst];
    }
    GreedyState st(g.num_vertices(), machines, mix64(seed + c));
    for (std::uint64_t i = begin; i < end; ++i) {
      const Edge& e = g.edges()[i];
      a.edge_machine[i] = greedy_place(e, machines, st, remaining);
      --remaining[e.src];
      --remaining[e.dst];
    }
  };
  parallel_ranges(machines, resolve_threads(threads),
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t c = lo; c < hi; ++c) {
                      run_loader(static_cast<machine_t>(c));
                    }
                  });
  return a;
}

// PowerLyra-style hybrid-cut: edges to low-in-degree destinations are
// co-located with the destination (edge-cut-like); edges into high-degree
// hubs are spread by source (vertex-cut-like). In-degrees come from the
// graph's shared degree cache, so repeated partitions of one graph (bench
// matrix, fuzz shrinking) pay the O(E) degree pass once.
Assignment hybrid_cut(const Graph& g, machine_t machines, std::uint64_t seed,
                      std::uint32_t threshold, std::size_t threads) {
  const std::vector<vid_t>& in_deg = g.in_degrees(threads);
  Assignment a;
  a.edge_machine.resize(g.num_edges());
  per_edge_parallel(g, threads, [&](std::size_t i) {
    const Edge& e = g.edges()[i];
    const vid_t anchor = in_deg[e.dst] <= threshold ? e.dst : e.src;
    a.edge_machine[i] = hash_to_machine(anchor, seed, machines);
  });
  return a;
}

}  // namespace

Assignment assign_edges(const Graph& g, machine_t machines,
                        const PartitionOptions& opts) {
  require(machines >= 1 && machines <= 64,
          "assign_edges: machines must be in [1, 64]");
  switch (opts.kind) {
    case CutKind::kRandom:
      return random_cut(g, machines, opts.seed, opts.threads);
    case CutKind::kGrid:
      return grid_cut(g, machines, opts.seed, opts.threads);
    case CutKind::kCoordinated:
      // Serial by construction: one cluster-wide replica table means every
      // placement observes all previous ones (the quality of the cut *is*
      // that coupling), so there are no independent streams to parallelize.
      return coordinated_cut(g, machines, opts.seed);
    case CutKind::kOblivious:
      return oblivious_cut(g, machines, opts.seed, opts.threads);
    case CutKind::kHybrid:
      return hybrid_cut(g, machines, opts.seed, opts.hybrid_threshold,
                        opts.threads);
  }
  throw std::invalid_argument("assign_edges: bad kind");
}

double replication_factor(const Graph& g, const Assignment& a,
                          machine_t machines, std::size_t threads) {
  require(a.edge_machine.size() == g.num_edges(),
          "replication_factor: assignment size mismatch");
  (void)machines;
  threads = resolve_threads(threads);
  std::vector<std::uint64_t> mask(g.num_vertices(), 0);
  if (threads <= 1 || g.num_edges() < 2 * threads) {
    for (std::size_t i = 0; i < g.edges().size(); ++i) {
      const Edge& e = g.edges()[i];
      mask[e.src] |= std::uint64_t{1} << a.edge_machine[i];
      mask[e.dst] |= std::uint64_t{1} << a.edge_machine[i];
    }
  } else {
    // Per-range replica masks folded with bitwise OR (commutative), so the
    // fold result is identical for any decomposition.
    std::vector<std::vector<std::uint64_t>> partial(threads);
    parallel_ranges(g.num_edges(), threads,
                    [&](std::size_t r, std::size_t begin, std::size_t end) {
                      auto& pm = partial[r];
                      pm.assign(g.num_vertices(), 0);
                      for (std::size_t i = begin; i < end; ++i) {
                        const Edge& e = g.edges()[i];
                        const std::uint64_t bit = std::uint64_t{1}
                                                  << a.edge_machine[i];
                        pm[e.src] |= bit;
                        pm[e.dst] |= bit;
                      }
                    });
    parallel_ranges(g.num_vertices(), threads,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (const auto& pm : partial) {
                        if (pm.empty()) continue;
                        for (std::size_t v = begin; v < end; ++v) {
                          mask[v] |= pm[v];
                        }
                      }
                    });
  }
  std::uint64_t replicas = 0;
  for (const std::uint64_t m : mask) {
    replicas += m ? static_cast<std::uint64_t>(std::popcount(m)) : 1;
  }
  return g.num_vertices() == 0
             ? 0.0
             : static_cast<double>(replicas) /
                   static_cast<double>(g.num_vertices());
}

std::vector<std::uint64_t> machine_loads(const Assignment& a,
                                         machine_t machines,
                                         std::size_t threads) {
  std::vector<std::uint64_t> load(machines, 0);
  threads = resolve_threads(threads);
  if (threads <= 1 || a.edge_machine.size() < 2 * threads) {
    for (const machine_t m : a.edge_machine) ++load[m];
    return load;
  }
  // Per-range histograms summed in range order (integer adds commute).
  std::vector<std::vector<std::uint64_t>> partial(
      threads, std::vector<std::uint64_t>(machines, 0));
  parallel_ranges(a.edge_machine.size(), threads,
                  [&](std::size_t r, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      ++partial[r][a.edge_machine[i]];
                    }
                  });
  for (const auto& h : partial) {
    for (machine_t m = 0; m < machines; ++m) load[m] += h[m];
  }
  return load;
}

}  // namespace lazygraph::partition
