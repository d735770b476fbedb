// The cross-engine differential oracle: runs one Scenario through all four
// engines and checks every invariant the paper's coherency protocol
// promises. A scenario passes only if
//
//   1. every engine converges and matches the single-machine reference
//      fixed point (exactly for the semilattice / integer programs, within a
//      threshold-derived bound for PageRank and diffusion);
//   2. at every coherency point the engine reports (via engine::run's
//      coherency inspector), all replicas of every vertex hold the
//      identical global view — on parallel-edges (split) graphs, whose
//      edge-copy deliveries are eager per machine, only at termination;
//   3. the trace accounts for the run: span durations tile the timeline and
//      sum to SimMetrics::sim_seconds(), and there is exactly one superstep
//      snapshot per counted superstep;
//   4. results are bit-identical across repeated runs and across cluster
//      thread counts.
#pragma once

#include <cstdint>
#include <string>

#include "testing/scenario.hpp"

namespace lazygraph::testing {

struct OracleOptions {
  /// Outer-iteration bound for every engine; failing to converge within it
  /// is an oracle failure.
  std::uint64_t max_supersteps = 300'000;
  /// Re-run one engine (picked from the scenario seed) twice and under a
  /// two-thread cluster, requiring bit-identical results.
  bool check_determinism = true;
  /// Verify replica views at every coherency point via the engine hooks.
  bool check_replica_coherency = true;
  /// Verify trace tiling / snapshot-count invariants.
  bool check_trace = true;
  /// Self-test knob: perturb one output value of one engine before the
  /// reference comparison, to prove the oracle would catch a wrong fixed
  /// point. Never set outside the oracle's own tests.
  bool inject_result_error = false;
};

struct Verdict {
  bool ok = true;
  /// Empty when ok; otherwise "<engine>: <first violated invariant>".
  std::string failure;
};

Verdict check_scenario(const Scenario& s, const OracleOptions& opts = {});

/// Fault-injection oracle entry point. Ensures the scenario carries a
/// failure plan — when `s.kill` is empty, a deterministic single-kill plan
/// is drawn from the scenario seed — then defers to check_scenario, whose
/// failure branch re-runs all four engines with the plan and asserts:
///
///   1. the converged state with an injected kill+recover is bit-identical
///      to the failure-free run (same supersteps, same result bits);
///   2. replica coherency holds at every post-recovery coherency point
///      (the same inspector hooks as the failure-free runs);
///   3. recovery cost appears as RecoverySpans whose seconds match the
///      kRecovery trace spans exactly, keeping the trace-tiling invariant;
///   4. same seed + same failure plan reproduce bit-identically (repeated
///      and under a two-thread cluster).
Verdict check_failure_scenario(const Scenario& s,
                               const OracleOptions& opts = {});

/// The plan-layer oracle, used by check_scenario whenever
/// Scenario::has_pipeline(). Lowers the recorded pipeline twice — composed
/// (fusion, carried frontiers, artifact cache, stage memo all on) and as the
/// sequential reference (everything off) — and requires
///
///   1. both lowerings converge and every stage's canonical result digest is
///      bit-identical between them;
///   2. the composed lowering computes zero redundant artifacts: exactly one
///      partition and one build per distinct graph view the pipeline needs;
///   3. the first (full-scope) stage matches the single-machine reference
///      fixed point, grounding the chain semantically;
///   4. re-lowering is deterministic (fresh executor: bit-identical digests)
///      and the stage memo replays a repeated lowering with zero engine runs.
Verdict check_pipeline_scenario(const Scenario& s,
                                const OracleOptions& opts = {});

/// The serving-layer oracle, used by check_scenario whenever
/// Scenario::has_batch(). Packs the scenario's query (lane 0) plus every
/// extra lane from Scenario::batch into one batched multi-source engine run
/// (serve::run_batched) and requires, on each of {sync, lazy-block,
/// lazy-vertex}:
///
///   1. every lane's converged state is bit-identical to the solo run of
///      the same query through the identical engine-construction path
///      (bounded only for diffusion under the lazy engines, matching the
///      replica-view slack the plain oracle grants fp reassociation);
///   2. per-lane live-coherency-point counts equal the solo run's wherever
///      the engine guarantees the schedule (serve::points_must_match);
///   3. the batched run reproduces bit-identically when repeated and under
///      a two-thread cluster (digests, trajectory, per-lane liveness).
Verdict check_batch_scenario(const Scenario& s, const OracleOptions& opts = {});

}  // namespace lazygraph::testing
