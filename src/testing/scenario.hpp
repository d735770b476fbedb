// Randomized cross-engine test scenarios: one fully materialized description
// of "a graph, a partitioning, a program, and an engine configuration" that
// the differential oracle (oracle.hpp) can run through all four engines and
// the shrinker (shrinker.hpp) can minimize.
//
// Scenarios are value types with a stable text serialization, so a failing
// case found by the fuzzer is replayable bit-for-bit from its dump alone —
// independent of the generator version that produced it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/comm_mode.hpp"
#include "engine/interval_model.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"

namespace lazygraph::testing {

/// Which vertex program the scenario runs (one per src/algos header).
enum class ProgramKind : std::uint8_t {
  kSssp,
  kBfs,
  kConnectedComponents,
  kKcore,
  kPagerank,
  kWidestPath,
  kDiffusion,
};
inline constexpr int kNumProgramKinds = 7;

const char* to_string(ProgramKind p);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
ProgramKind program_kind_from_string(const std::string& s);

/// One differential test case. The edge list is materialized (not a
/// generator recipe) so the shrinker can delete edges and vertices while the
/// case stays replayable.
struct Scenario {
  /// The one accepted text-format header (to_text writes it).
  static constexpr const char* kHeader = "lazygraph-scenario v7";

  /// Provenance label: the corpus seed this case was generated from (kept
  /// through shrinking so dumps can be traced back to a fuzzer run).
  std::uint64_t seed = 0;

  // --- graph (user view) ---
  vid_t num_vertices = 0;
  std::vector<Edge> edges;

  // --- partitioning ---
  machine_t machines = 2;
  partition::CutKind cut = partition::CutKind::kCoordinated;
  std::uint64_t partition_seed = 1;
  /// Convert the edge-splitter's picks to parallel-edges mode for the lazy
  /// engines (eager engines always run unsplit).
  bool split = false;

  // --- program ---
  ProgramKind program = ProgramKind::kSssp;
  vid_t source = 0;        // SSSP / BFS / widest-path / diffusion seed
  std::uint32_t kcore_k = 3;
  double tol = 1e-4;       // PageRank / diffusion scatter threshold
  double alpha = 0.5;      // diffusion damping (< 1)

  // --- engine knobs ---
  std::uint32_t staleness = 4;  // lazy-vertex applies between coherency events
  engine::IntervalPolicy interval_policy = engine::IntervalPolicy::kAdaptive;
  engine::CommModePolicy comm_policy = engine::CommModePolicy::kAdaptive;

  // --- pipeline (plan layer) ---
  /// When non-empty, the oracle checks this recorded pipeline (stored as
  /// plan::Pipeline grammar text, one space-free token) instead of the
  /// single `program`: the composed lowering must be bit-identical to the
  /// sequential reference lowering, with zero redundant partitions/builds.
  std::string pipeline;
  /// Default engine of the lowering (engine::to_string name; stages may
  /// still carry their own @engine preference inside `pipeline`).
  std::string plan_engine = "lazygraph-block";

  // --- fault injection ---
  /// When non-empty, a failure plan in sim::FailurePlan text form
  /// ("m@k[:r]", comma-joined). The oracle re-runs every engine with the
  /// plan installed and requires the converged state to be bit-identical to
  /// the failure-free run. Empty means no failures.
  std::string kill;

  // --- serving layer (batched lanes) ---
  /// When non-empty, comma-joined extra lane parameters for the serving
  /// layer's batched-run check (check_batch_scenario): sources for the
  /// source programs, thresholds for k-core. The scenario's own source /
  /// kcore_k is always lane 0; each listed value adds one more lane. The
  /// oracle packs all lanes into one batched engine run and requires every
  /// lane to match its solo run bit-for-bit. Empty means no batch check.
  std::string batch;

  bool has_pipeline() const { return !pipeline.empty(); }
  bool has_failures() const { return !kill.empty(); }
  bool has_batch() const { return !batch.empty(); }

  /// Parses `batch` into the extra lane parameters (empty when no batch).
  /// Throws std::invalid_argument on malformed text.
  std::vector<std::uint32_t> batch_lanes() const;
  /// Inverse of batch_lanes: canonical comma-joined form for Scenario::batch.
  static std::string join_lanes(const std::vector<std::uint32_t>& lanes);

  bool operator==(const Scenario&) const = default;

  /// Materializes the user-view graph the engines run on. CC and k-core
  /// operate on undirected graphs, so for those the edge list is
  /// symmetrized (matching how the reference implementations are compared
  /// against the engines everywhere else in the test suite).
  Graph build_graph() const;

  /// True for programs whose activation starts from `source` (these require
  /// num_vertices > 0 and source < num_vertices).
  bool needs_source() const;

  /// One-line human summary ("seed=5 V=37 E=120 P=4 cut=grid prog=sssp ...").
  std::string summary() const;

  /// Stable text form (replayable with lazygraph_fuzz --replay=FILE).
  void to_text(std::ostream& os) const;
  std::string to_text() const;
  /// Parses to_text output; throws std::invalid_argument on malformed input,
  /// including any header other than kHeader.
  static Scenario from_text(std::istream& is);
  static Scenario from_text(const std::string& text);
};

/// Deterministically generates scenario number `index` of the corpus rooted
/// at `corpus_seed`. Covers random graph families (R-MAT, Chung-Lu,
/// road-lattice, Erdos-Renyi, structured) and the degenerate shapes that
/// historically break partitioned engines: the empty graph, self-loops,
/// isolated vertices, a single machine, and more machines than vertices.
Scenario make_scenario(std::uint64_t corpus_seed, std::uint64_t index);

}  // namespace lazygraph::testing
