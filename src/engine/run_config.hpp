// What one engine run is configured with: the engine kind plus every knob
// any engine reads. engine::run (engine/run.hpp) is the only constructor of
// engines; each engine reads this shared struct and ignores the knobs that
// belong to other kinds.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/comm_mode.hpp"
#include "engine/interval_model.hpp"
#include "sim/trace.hpp"
#include "util/common.hpp"

namespace lazygraph::engine {

enum class EngineKind { kSync, kAsync, kLazyBlock, kLazyVertex };

inline const char* to_string(EngineKind k) {
  switch (k) {
    case EngineKind::kSync: return "powergraph-sync";
    case EngineKind::kAsync: return "powergraph-async";
    case EngineKind::kLazyBlock: return "lazygraph-block";
    case EngineKind::kLazyVertex: return "lazygraph-vertex";
  }
  return "?";
}

/// Inverse of to_string(EngineKind). Also accepts the CLI short aliases
/// ("sync", "async", "lazy-block", "lazy-vertex"); throws
/// std::invalid_argument on anything else.
inline EngineKind engine_kind_from_string(const std::string& s) {
  for (EngineKind k : {EngineKind::kSync, EngineKind::kAsync,
                       EngineKind::kLazyBlock, EngineKind::kLazyVertex}) {
    if (s == to_string(k)) return k;
  }
  if (s == "sync") return EngineKind::kSync;
  if (s == "async") return EngineKind::kAsync;
  if (s == "lazy-block") return EngineKind::kLazyBlock;
  if (s == "lazy-vertex") return EngineKind::kLazyVertex;
  throw std::invalid_argument("unknown engine: " + s);
}

/// Everything one engine run needs beyond the graph, program and cluster.
/// Common fields are hoisted; engine-specific knobs apply only to the kind
/// that reads them and are harmless otherwise.
struct RunConfig {
  EngineKind kind = EngineKind::kLazyBlock;

  // --- common ---
  /// Bound on outer iterations: supersteps (sync/lazy-block), Gauss-Seidel
  /// rounds (async), queue cycles (lazy-vertex).
  std::uint64_t max_supersteps = 1'000'000;
  /// Optional span/snapshot recorder, attached to the cluster for the run.
  sim::Tracer* tracer = nullptr;

  // --- lazy-block ---
  IntervalModelConfig interval = {};
  CommModePolicy comm_policy = CommModePolicy::kAdaptive;

  // --- lazy-vertex ---
  /// Local applies a spanning replica may perform between coherency events.
  std::uint32_t staleness = 4;

  // --- pipeline-stage injection (plan layer; see src/plan/) ---
  /// Global ids (ascending) restricting the engines' init-message placement
  /// scan to this worklist. Results are bit-identical to a full scan whenever
  /// the list covers every vertex the program would initialize — the pipeline
  /// lowerer always passes the downstream stage's full scope, so this is
  /// purely a sweep_scanned optimization. Not owned; may be null.
  const std::vector<vid_t>* initial_frontier = nullptr;
  /// Type-erased `const std::vector<typename P::VData>*` (indexed by global
  /// id) seeding every replica's vdata instead of prog.init_data — the
  /// carried-state warm start of pipeline refinement stages. Not owned.
  const void* initial_state = nullptr;
};

}  // namespace lazygraph::engine
