// Vertex-cut graph partitioning: edges are assigned to machines; vertices
// span (get replicated on) every machine holding one of their edges.
//
// Four algorithms, matching Section 4.1 of the paper: random-cut, grid-cut,
// coordinated(greedy)-cut (PowerGraph's default and the one used in the
// evaluation), and hybrid-cut (PowerLyra-style degree-differentiated).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace lazygraph::partition {

enum class CutKind {
  kRandom,
  kGrid,
  kCoordinated,  // greedy with a shared (cluster-wide) replica table
  kOblivious,    // greedy with per-loader replica tables (no coordination)
  kHybrid,
};

const char* to_string(CutKind kind);
/// Inverse of to_string(CutKind); throws std::invalid_argument naming any
/// other string.
CutKind cut_kind_from_string(const std::string& s);

struct PartitionOptions {
  CutKind kind = CutKind::kCoordinated;
  std::uint64_t seed = 1;
  /// hybrid-cut: destinations with in-degree above this are cut by source.
  std::uint32_t hybrid_threshold = 100;
  /// Setup-path threads (1 = serial, 0 = hardware concurrency). Purely an
  /// execution knob: every cut is bit-identical at any value. random/grid/
  /// hybrid parallelize over edge ranges (pure per-edge hashes), oblivious
  /// over its per-loader greedy streams; coordinated stays serial by
  /// construction (one shared replica table — every placement depends on
  /// all previous ones).
  std::size_t threads = 1;
};

/// Per-edge machine assignment; edge_machine[i] corresponds to g.edges()[i].
struct Assignment {
  std::vector<machine_t> edge_machine;
};

/// Assigns every edge of `g` to one of `machines` machines.
Assignment assign_edges(const Graph& g, machine_t machines,
                        const PartitionOptions& opts);

/// Replication factor lambda: average number of machines spanned per vertex
/// (vertices with no edges count as 1 replica). This is the quantity the
/// paper's Table 1 reports and Section 5.3 correlates speedups with.
/// `threads` parallelizes the mask build with per-range masks folded by
/// bitwise OR (commutative), so the result never depends on it.
double replication_factor(const Graph& g, const Assignment& a,
                          machine_t machines, std::size_t threads = 1);

/// Per-machine edge counts (load balance diagnostics). `threads`
/// parallelizes with per-range histograms summed in range order.
std::vector<std::uint64_t> machine_loads(const Assignment& a,
                                         machine_t machines,
                                         std::size_t threads = 1);

}  // namespace lazygraph::partition
