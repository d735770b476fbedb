// The lowering half of the plan subsystem: Executor turns a recorded
// plan::Pipeline into engine runs against one graph, making every reuse
// decision the record-then-lower design enables:
//
//   * artifact reuse — each distinct graph view (plain / symmetrized) is
//     partitioned and built once per lowering, through
//     partition::ArtifactCache when LowerOptions::reuse_artifacts is on;
//   * carried state — stage handoffs narrow a VertexScope (k-core keeps
//     survivors, cc(seed) keeps the seed's component, traversals keep the
//     reached set) that scopes the next stage's program and, with
//     carry_frontiers, is injected as the next run's initial frontier so
//     init scans only the scope instead of every vertex;
//   * warm starts — pagerank |> pagerank lowers the second stage as a
//     Warm-wrapped program seeded with the first stage's converged state;
//   * fusion — compatible adjacent stages (see fusable()) run as one
//     Fused<A,B> engine run;
//   * stage dedup — stage outcomes are memoized under a Merkle-style prefix
//     chain key, so re-lowering a pipeline sharing a prefix with an earlier
//     one replays the shared stages from the memo without running anything.
//
// The composed lowering is bit-identical to the sequential reference
// (LowerOptions with fuse/carry/reuse all off): masks and warm starts are
// semantic and applied in both; frontier carrying only prunes the init scan
// of vertices the scoped program would not initialize anyway; fusion is
// restricted to pairs whose lanes provably reproduce their solo bits (sync)
// or whose fixpoints are schedule-invariant (exact integer programs).
// testing::check_pipeline_scenario holds this invariant under fuzz.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "engine/run.hpp"
#include "graph/graph.hpp"
#include "partition/artifact_cache.hpp"
#include "plan/pipeline.hpp"
#include "plan/scope.hpp"
#include "sim/trace.hpp"

namespace lazygraph::plan {

/// Knobs of one lowering. The defaults give the fully composed path; the
/// sequential reference turns every reuse mechanism off (see
/// sequential_baseline).
struct LowerOptions {
  engine::EngineKind default_engine = engine::EngineKind::kLazyBlock;
  std::uint64_t max_supersteps = 1'000'000;
  std::uint32_t staleness = 4;                 // lazy-vertex
  engine::IntervalModelConfig interval = {};   // lazy-block
  engine::CommModePolicy comm_policy = engine::CommModePolicy::kAdaptive;
  /// Parallel-edges split plan baked into every view's build.
  partition::EdgeSplitterOptions split = {.enabled = false};

  bool fuse = true;             // fuse compatible adjacent stages
  bool carry_frontiers = true;  // inject scope members as initial frontiers
  bool reuse_artifacts = true;  // materialize views through the ArtifactCache
  bool reuse_stages = true;     // memoize stage outcomes across run() calls

  /// Optional recorder: engine spans plus one SetupSpan per lowering
  /// decision (kPartition/kBuild per view, kPlanLower per engine-run group,
  /// kPlanCarry per injected frontier).
  sim::Tracer* tracer = nullptr;
};

/// `o` with every reuse mechanism disabled: per-stage cold partitions and
/// builds, full init scans, no fusion, no memo. The oracle's reference.
inline LowerOptions sequential_baseline(LowerOptions o) {
  o.fuse = false;
  o.carry_frontiers = false;
  o.reuse_artifacts = false;
  o.reuse_stages = false;
  return o;
}

/// The carried result of one lowered stage (also the memoized unit).
struct StageOutcome {
  AlgoKind algo = AlgoKind::kCc;
  /// `const std::vector<P::VData>*` for the stage's program type, indexed by
  /// global id (shared with later warm stages and the caller).
  std::shared_ptr<const void> data;
  const std::type_info* data_type = nullptr;
  /// Canonical per-vertex bit image of `data` (layout fixed per algorithm),
  /// comparable across lowerings without knowing the type: equal digests
  /// <=> bitwise-equal stage results.
  std::vector<std::uint64_t> digest;
  /// The scope this stage hands to its successor.
  std::shared_ptr<const VertexScope> scope_out;
  bool converged = false;
  std::uint64_t supersteps = 0;
};

/// What the lowerer decided and measured for one stage.
struct StageReport {
  std::string stage;           // canonical StageSpec text
  engine::EngineKind engine = engine::EngineKind::kLazyBlock;
  std::size_t group = 0;       // engine-run group index (fused stages share)
  bool fused = false;          // ran inside a Fused<A,B> group
  bool warm = false;           // warm-started from the previous stage
  bool reused = false;         // stage-outcome memo hit; nothing ran
  std::uint64_t scope_size = 0;         // |scope_in|
  std::uint64_t carried_frontier = 0;   // injected frontier size (0 = none)
  bool converged = false;
  std::uint64_t supersteps = 0;
  // Per-group engine cost deltas (fused stages report the shared group's).
  double sim_seconds = 0.0;
  std::uint64_t sweep_scanned = 0;
  std::uint64_t global_syncs = 0;
  std::uint64_t network_bytes = 0;
};

struct PipelineResult {
  std::vector<StageReport> stages;
  std::vector<StageOutcome> outcomes;  // one per stage, pipeline order
  bool converged = true;               // every stage converged
  std::uint64_t engine_runs = 0;       // engine invocations this lowering
  std::uint64_t partitions_computed = 0;  // assign_edges actually executed
  std::uint64_t builds_computed = 0;      // DistributedGraph::build executed
  /// Final metrics of the lowering's cluster (all groups accumulate);
  /// state_bytes is the peak over the group runs.
  sim::SimMetrics metrics = {};

  /// Typed view of outcome `i`'s data; P must be the stage's algos program.
  template <class P>
  const std::vector<typename P::VData>& data_as(std::size_t i) const {
    const StageOutcome& o = outcomes.at(i);
    require(o.data_type && *o.data_type == typeid(typename P::VData),
            "plan: data_as<P> type mismatch for stage " + std::to_string(i));
    return *static_cast<const std::vector<typename P::VData>*>(o.data.get());
  }
};

/// True when adjacent stages (a then b) may run as one Fused engine run on
/// `kind`: a must hand its scope through unchanged, and either the engine is
/// sync (lane-decoupled bit-identity) or both lanes are exact integer
/// programs (schedule-invariant fixpoints). Only whitelisted pairs
/// instantiate: (cc,kcore) on any engine; (pagerank,sssp) and (pagerank,bfs)
/// on sync.
bool fusable(const StageSpec& a, const StageSpec& b, engine::EngineKind kind);

/// Lowers pipelines against one graph. Owns the derived symmetrized view
/// and the stage-outcome memo (both persist across run() calls, so repeated
/// or prefix-sharing lowerings replay from the memo).
class Executor {
 public:
  /// `cache` may be null to always build artifacts directly (equivalent to
  /// reuse_artifacts = false). `threads` is the executor's thread budget:
  /// it parallelizes partitioning and building on misses and caps the
  /// lowering cluster's machine fan-out (0 = hardware concurrency). Results,
  /// stage digests and metrics are bit-identical at any value.
  Executor(Graph g, machine_t machines,
           partition::PartitionOptions popts = {},
           partition::ArtifactCache* cache = &partition::ArtifactCache::global(),
           std::size_t threads = 1);

  PipelineResult run(const Pipeline& pipe, const LowerOptions& opts = {});

  const Graph& graph() const { return g_; }
  machine_t machines() const { return machines_; }

 private:
  struct ViewSlot {
    std::shared_ptr<const partition::DistributedGraph> dg;
    std::uint64_t key = 0;  // (view, split) identity of the cached dg
  };

  const Graph& view(bool symmetrized);

  Graph g_;
  std::optional<Graph> sym_;
  machine_t machines_;
  partition::PartitionOptions popts_;
  partition::ArtifactCache* cache_;
  std::size_t threads_;
  /// Direct-build memo for the composed path when `cache_` is null; keyed
  /// like ViewSlot::key. Cleared never (two views × split configs, tiny).
  std::vector<ViewSlot> views_;
  /// Stage-outcome memo: Merkle prefix-chain key -> outcome.
  std::unordered_map<std::uint64_t, std::shared_ptr<const StageOutcome>> memo_;
};

}  // namespace lazygraph::plan
