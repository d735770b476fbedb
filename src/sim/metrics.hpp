// Run metrics collected by every engine: the quantities the paper's Figures
// 9-12 are built from (simulated time, global synchronizations, traffic).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "sim/netmodel.hpp"

namespace lazygraph::sim {

struct SimMetrics {
  // --- counted exactly ---
  std::uint64_t global_syncs = 0;       // barrier count (Fig. 10)
  std::uint64_t network_messages = 0;   // point-to-point messages sent
  std::uint64_t network_bytes = 0;      // traffic volume (Fig. 11)
  std::uint64_t supersteps = 0;         // outer iterations of the engine
  std::uint64_t local_subiterations = 0;  // lazy local-stage sweeps
  std::uint64_t applies = 0;            // vertex apply invocations
  std::uint64_t edge_traversals = 0;    // scatter/gather edge work
  std::uint64_t a2a_exchanges = 0;      // coherency stages using all-to-all
  std::uint64_t m2m_exchanges = 0;      // ... using mirrors-to-master
  std::uint64_t vertex_coherency_events = 0;  // LazyVertexAsync per-vertex
  /// Candidate slots examined while locating active vertices (dense scans
  /// add num_local, sparse frontier walks add the entry count) — the
  /// worklist machinery's effectiveness measure: sparse supersteps keep this
  /// near the frontier size instead of O(num_local) per sweep.
  std::uint64_t sweep_scanned = 0;
  /// Out-edges the sync scatter and lazy-block sweeps pushed along.
  std::uint64_t sweep_edges_pushed = 0;
  /// Always 0: every sweep pushes. Kept because the end-to-end benchmark
  /// still reports them.
  std::uint64_t sweep_pull_rounds = 0;
  std::uint64_t sweep_edges_pulled = 0;
  /// Exchange/broadcast/fine-grained traffic both ways of the wire codec:
  /// `raw` is the uncompressed-fallback size (kUncompressedHeaderBytes +
  /// payload per record), `wire` the delta-varint encoded size actually
  /// charged to the network (wire contributes to network_bytes; raw is
  /// accounting only). wire < raw whenever any exchange happened.
  std::uint64_t exchange_bytes_raw = 0;
  std::uint64_t exchange_bytes_wire = 0;
  /// Peak resident per-machine runtime state: sum of the PartState slab
  /// sizes across machines, stamped by engine::finalize_result.
  std::uint64_t state_bytes = 0;
  // --- fault injection & recovery (src/recovery/) ---
  std::uint64_t recoveries = 0;       // machines killed and rebuilt mid-run
  std::uint64_t guard_bytes = 0;      // delta-log guard traffic since the
                                      // last coherency point
  std::uint64_t recovery_bytes = 0;   // mirror + log bytes pulled to rebuild
                                      // a dead machine (also in network_bytes)

  // --- modeled (seconds) ---
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  double barrier_seconds = 0.0;
  double overhead_seconds = 0.0;  // per-message software overhead (async)

  // --- setup path (wall-clock, NOT simulated time) ---
  /// Host seconds spent in ingest/partition/build before the engine ran.
  /// Deliberately excluded from sim_seconds(): setup is real elapsed time of
  /// this process, not modeled cluster time.
  double setup_seconds = 0.0;
  std::uint64_t setup_cache_hits = 0;    // artifact-cache hits during setup
  std::uint64_t setup_cache_misses = 0;  // ... misses (stages computed)

  double sim_seconds() const {
    return compute_seconds + comm_seconds + barrier_seconds +
           overhead_seconds;
  }
  double network_mb() const {
    return static_cast<double>(network_bytes) / (1024.0 * 1024.0);
  }

  /// Sums another run's metrics into this one (e.g. a server's batch runs):
  /// every counted and modeled field adds, except the peak state_bytes,
  /// which takes the max.
  SimMetrics& operator+=(const SimMetrics& o);

  void print(std::ostream& os, const std::string& label) const;
};

}  // namespace lazygraph::sim
