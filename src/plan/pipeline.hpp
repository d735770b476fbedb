// The record half of the plan subsystem: a Pipeline is a recorded sequence
// of algorithm stages — algorithm + parameters + optional per-stage engine
// preference — that captures a multi-stage analysis WITHOUT executing
// anything (the LazyTensor shape: record requested ops, lower on demand).
// Lowering against a graph happens in plan::Executor (executor.hpp), which
// reuses partition/build artifacts, carries converged state and frontiers
// across stage boundaries, and fuses compatible adjacent stages.
//
// Text grammar (space-free, one token; used by --pipeline and the fuzzer's
// scenario serialization):
//
//   pipeline := stage ('|' stage)*
//   stage    := name [ '(' arg (',' arg)* ')' ] [ '@' engine ]
//
//   kcore(K)           k-core decomposition; scopes downstream to survivors
//   cc | cc(SEED)      connected components; with SEED scopes downstream to
//                      SEED's component
//   pagerank(TOL)      PageRank-Delta; a pagerank stage directly after
//                      another pagerank stage warm-starts from its ranks
//   sssp(SRC) bfs(SRC) widest(SRC)   single-source traversals; scope
//                      downstream to the reached set
//   diffusion(SRC[,ALPHA[,TOL]])     personalized linear diffusion
//
// `@engine` accepts the canonical engine names and the CLI short aliases
// (see engine::engine_kind_from_string); stages without a preference run on
// the lowering default.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace lazygraph::plan {

/// Which vertex program a stage runs (one per src/algos header).
enum class AlgoKind : std::uint8_t {
  kSssp,
  kBfs,
  kCc,
  kKcore,
  kPagerank,
  kWidest,
  kDiffusion,
};
inline constexpr int kNumAlgoKinds = 7;

const char* to_string(AlgoKind a);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
AlgoKind algo_kind_from_string(const std::string& s);

/// True for algorithms that run on the symmetrized user view (undirected
/// notions); the executor materializes one partition per distinct view.
bool needs_symmetrized(AlgoKind a);

/// One recorded stage. Parameters not used by the stage's algorithm keep
/// their defaults and are neither printed nor compared meaningfully.
struct StageSpec {
  AlgoKind algo = AlgoKind::kCc;
  /// sssp/bfs/widest/diffusion source; for cc, an optional scoping seed
  /// (downstream stages are restricted to the seed's component).
  bool has_source = false;
  vid_t source = 0;
  std::uint32_t k = 3;    // kcore
  double tol = 1e-3;      // pagerank / diffusion scatter threshold
  double alpha = 0.6;     // diffusion damping
  /// Per-stage engine preference ("" = use the lowering default). Stored as
  /// the spelled name so this header stays independent of the engine stack;
  /// validated at parse/lower time via engine::engine_kind_from_string.
  /// (The `= {}` lets designated initializers omit it warning-free.)
  std::string engine = {};

  bool operator==(const StageSpec&) const = default;

  /// Canonical one-token text ("kcore(5)", "pagerank(0.001)@powergraph-sync").
  std::string to_string() const;
};

/// A recorded plan: an ordered stage list plus the builder API that records
/// it. Pure value type; nothing here touches a graph or an engine.
class Pipeline {
 public:
  Pipeline() = default;

  // --- builder (each records one stage and returns *this for chaining) ---
  Pipeline& kcore(std::uint32_t k);
  Pipeline& cc();
  Pipeline& cc(vid_t scope_seed);
  Pipeline& pagerank(double tol);
  Pipeline& sssp(vid_t source);
  Pipeline& bfs(vid_t source);
  Pipeline& widest(vid_t source);
  Pipeline& diffusion(vid_t source, double alpha = 0.6, double tol = 1e-3);
  Pipeline& stage(StageSpec s);
  /// Sets the engine preference of the most recently recorded stage.
  Pipeline& on(const std::string& engine);

  const std::vector<StageSpec>& stages() const { return stages_; }
  bool empty() const { return stages_.empty(); }
  std::size_t size() const { return stages_.size(); }

  bool operator==(const Pipeline&) const = default;

  /// Canonical pipe-joined text; parse(to_string()) reproduces the pipeline
  /// exactly (doubles print in shortest round-trip form).
  std::string to_string() const;
  /// Parses the grammar above; throws std::invalid_argument on malformed
  /// input (unknown stage/engine names, bad arity, stray whitespace).
  static Pipeline parse(const std::string& text);

 private:
  std::vector<StageSpec> stages_;
};

}  // namespace lazygraph::plan
