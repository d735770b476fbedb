// The partitioned "system view" graph: per-machine vertex replicas (master +
// mirrors), local out-edge CSRs, and precomputed replica routing tables used
// by the engines' coherency exchanges.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "partition/partitioner.hpp"

namespace lazygraph::partition {

/// One machine's share of the distributed graph.
struct Part {
  // --- vertices (index = local vertex id) ---
  std::vector<vid_t> gids;                   // lvid -> global id
  std::unordered_map<vid_t, lvid_t> g2l;     // global id -> lvid
  std::vector<std::uint64_t> replica_mask;   // machines holding a replica
  std::vector<machine_t> master;             // master machine of the vertex
  std::vector<lvid_t> master_lvid;           // lvid on the master machine
  std::vector<vid_t> global_out_degree;      // user-view out-degree
  std::vector<vid_t> global_total_degree;    // user-view in+out degree
  std::vector<vid_t> local_in_degree;        // in-edges on this machine
  /// For each lvid, the other replicas as (machine, lvid there) pairs,
  /// sorted by machine. Empty for non-spanning vertices.
  std::vector<std::vector<std::pair<machine_t, lvid_t>>> remote_replicas;

  // --- local out-edges, CSR by source lvid ---
  std::vector<std::uint64_t> offsets;  // size num_local()+1
  std::vector<lvid_t> targets;
  std::vector<float> weights;
  std::vector<std::uint8_t> parallel_mode;  // 1 = parallel-edges copy

  lvid_t num_local() const { return static_cast<lvid_t>(gids.size()); }
  std::uint64_t num_local_edges() const { return targets.size(); }
  bool is_master(lvid_t v, machine_t self) const { return master[v] == self; }
  std::uint32_t num_replicas(lvid_t v) const;

  std::span<const lvid_t> out_neighbors(lvid_t v) const {
    return {targets.data() + offsets[v], targets.data() + offsets[v + 1]};
  }
};

class DistributedGraph {
 public:
  /// Builds the partitioned graph from a user-view graph and an edge
  /// assignment. `split_edges` (sorted indices into g.edges()) are converted
  /// to parallel-edges mode: each is replicated to every machine holding a
  /// replica of its destination, creating source replicas where missing
  /// (the paper's dispatch rule for unidirectional algorithms).
  ///
  /// `threads` (1 = serial, 0 = hardware concurrency) parallelizes the heavy
  /// stages — replica-mask build (per-range masks OR-folded), master
  /// selection (pure per-vertex), edge bucketing (per-range buckets
  /// concatenated in range order), and the per-machine CSR construction
  /// (machines are independent) — on the process-wide shared pool. Output is
  /// bit-identical for every thread count.
  static DistributedGraph build(const Graph& g, machine_t machines,
                                const Assignment& assignment,
                                std::span<const std::uint64_t> split_edges = {},
                                std::size_t threads = 1);

  machine_t num_machines() const { return static_cast<machine_t>(parts_.size()); }
  vid_t num_global_vertices() const { return num_global_; }
  const Part& part(machine_t m) const { return parts_[m]; }
  std::span<const Part> parts() const { return parts_; }

  /// Master machine of each global vertex.
  machine_t master_of(vid_t gid) const { return master_of_[gid]; }
  /// Local id of the master replica of each global vertex.
  lvid_t master_lvid_of(vid_t gid) const { return master_lvid_of_[gid]; }

  /// Average replicas per vertex after any edge splitting.
  double replication_factor() const { return replication_factor_; }
  /// Number of extra local edge copies introduced by parallel-edges mode.
  std::uint64_t parallel_edge_copies() const { return parallel_copies_; }
  /// Total local edges over all machines.
  std::uint64_t total_local_edges() const;
  /// Edges of the user-view graph this partition was built from (local edge
  /// copies minus the parallel-edges duplicates).
  std::uint64_t num_user_edges() const {
    return total_local_edges() - parallel_copies_;
  }
  /// E/V ratio of the user-view graph; feeds the adaptive interval model.
  double user_ev_ratio() const {
    return num_global_ == 0 ? 0.0
                            : static_cast<double>(num_user_edges()) /
                                  static_cast<double>(num_global_);
  }

 private:
  vid_t num_global_ = 0;
  std::vector<Part> parts_;
  std::vector<machine_t> master_of_;
  std::vector<lvid_t> master_lvid_of_;
  double replication_factor_ = 0.0;
  std::uint64_t parallel_copies_ = 0;
};

}  // namespace lazygraph::partition
