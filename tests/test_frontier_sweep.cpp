// Frontier worklist + local sweep tests: the sparse/dense representation
// switch, sweep equivalence against reference whole-array scans (the
// historical implementation), and the scan-work reduction on sparse runs.
#include <gtest/gtest.h>

#include <random>

#include "lazygraph.hpp"

namespace lazygraph {
namespace {

using engine::Frontier;
using engine::PartState;
using engine::SweepCounters;
using engine::SweepMode;

// ---------------------------------------------------------------- Frontier

TEST(Frontier, SparseActivationsAreFlagGuarded) {
  Frontier f;
  f.reset(1000);
  std::vector<std::uint8_t> flags(1000, 0);
  flags[3] = flags[7] = 1;
  f.activate(3);
  f.activate(7);
  f.activate(11);  // stale: flag never set
  EXPECT_FALSE(f.is_dense());

  std::vector<lvid_t> seen;
  const std::size_t scanned =
      f.for_each_flagged(flags, [&](lvid_t v) { seen.push_back(v); });
  EXPECT_EQ(scanned, 3u);  // three entries examined, two live
  EXPECT_EQ(seen, (std::vector<lvid_t>{3, 7}));
}

TEST(Frontier, CrossingThresholdGoesDenseAndScansFlags) {
  Frontier f;
  f.reset(1000);  // threshold = max(64, 125) = 125
  std::vector<std::uint8_t> flags(1000, 0);
  for (lvid_t v = 0; v < 200; ++v) {
    flags[v] = 1;
    f.activate(v);
  }
  EXPECT_TRUE(f.is_dense());
  EXPECT_TRUE(f.entries().empty());  // list dropped on the switch

  std::size_t live = 0;
  const std::size_t scanned =
      f.for_each_flagged(flags, [&](lvid_t) { ++live; });
  EXPECT_EQ(scanned, 1000u);  // dense = full flag scan
  EXPECT_EQ(live, 200u);
}

// The boundary contract, exactly: the sparse list may fill to threshold
// entries and stay sparse; the activation that would push past it flips
// dense (recorded in the flags only — the list is dropped).
TEST(Frontier, ExactThresholdStaysSparseOneMoreGoesDense) {
  Frontier f;
  f.reset(1000);  // threshold = max(64, 1000/8) = 125
  for (lvid_t v = 0; v < 125; ++v) f.activate(v);
  EXPECT_FALSE(f.is_dense());
  EXPECT_EQ(f.entries().size(), 125u);  // all retained at the boundary

  f.activate(125);  // entry 126: would push past the threshold
  EXPECT_TRUE(f.is_dense());
  EXPECT_TRUE(f.entries().empty());

  // Flags carry the information from the switch on: the flipped frontier
  // scans every flag, finding the boundary activation too.
  std::vector<std::uint8_t> flags(1000, 0);
  for (lvid_t v = 0; v <= 125; ++v) flags[v] = 1;
  std::size_t live = 0;
  EXPECT_EQ(f.for_each_flagged(flags, [&](lvid_t) { ++live; }), 1000u);
  EXPECT_EQ(live, 126u);
}

TEST(Frontier, ClearResetsDenseToSparse) {
  Frontier f;
  f.reset(100);  // threshold = 64
  for (lvid_t v = 0; v < 70; ++v) f.activate(v);
  ASSERT_TRUE(f.is_dense());
  f.clear();
  EXPECT_FALSE(f.is_dense());
  f.activate(5);
  EXPECT_EQ(f.entries(), (std::vector<lvid_t>{5}));
}

TEST(Frontier, SortUniqueDedupsEntries) {
  Frontier f;
  f.reset(100);
  for (const lvid_t v : {9, 2, 9, 5, 2}) f.activate(v);
  f.sort_unique();
  EXPECT_EQ(f.entries(), (std::vector<lvid_t>{2, 5, 9}));
}

TEST(Frontier, TrackingOffAlwaysScansFlags) {
  Frontier f;
  f.reset(50);
  f.set_tracking(false);
  f.activate(3);  // ignored
  EXPECT_TRUE(f.entries().empty());
  std::vector<std::uint8_t> flags(50, 0);
  flags[10] = 1;
  std::size_t live = 0;
  EXPECT_EQ(f.for_each_flagged(flags, [&](lvid_t) { ++live; }), 50u);
  EXPECT_EQ(live, 1u);
}

// ------------------------------------------------- sweep vs reference scan

/// Single-machine fixture: the full graph on one part, plus helpers to
/// deposit messages and clone engine state.
template <class P>
struct SweepRig {
  Graph g;
  partition::DistributedGraph dg;
  P prog;
  std::vector<PartState<P>> states;

  explicit SweepRig(Graph graph, P p = {})
      : g(std::move(graph)),
        dg(partition::DistributedGraph::build(
            g, 1,
            partition::assign_edges(g, 1,
                                    {partition::CutKind::kCoordinated, 1}))),
        prog(p),
        states(engine::make_states(dg, prog)) {}

  const partition::Part& part() const { return dg.part(0); }
  PartState<P>& state() { return states[0]; }
};

/// The historical dense implementation: one ascending whole-array flag scan
/// with Gauss-Seidel visibility. The frontier-driven sweeps must reproduce
/// its results bit-for-bit.
template <class P>
SweepCounters reference_scan_sweep(const P& prog, const partition::Part& part,
                                   PartState<P>& s) {
  SweepCounters c;
  for (lvid_t v = 0; v < part.num_local(); ++v) {
    if (!s.has_msg[v]) continue;
    const typename P::Msg m = s.msg[v];
    s.has_msg[v] = 0;
    const engine::VertexInfo info = engine::vertex_info<P>(part, v);
    ++c.applies;
    ++c.work;
    const auto payload = prog.apply(s.vdata[v], info, m);
    if (!payload) continue;
    for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
      const lvid_t u = part.targets[e];
      const typename P::Msg out = prog.scatter(*payload, info,
                                               part.weights[e]);
      engine::deposit_msg(prog, s, u, out);
      if (!part.parallel_mode[e] && part.num_replicas(u) > 1) {
        engine::deposit_delta(prog, s, u, out);
      }
      ++c.work;
    }
  }
  c.scanned += part.num_local();
  return c;
}

/// Reference snapshot sweep: collect the flagged set ascending, then
/// apply+scatter it with all deposits deferred to the arrays.
template <class P>
SweepCounters reference_snapshot_sweep(const P& prog,
                                       const partition::Part& part,
                                       PartState<P>& s) {
  SweepCounters c;
  std::vector<lvid_t> snapshot;
  std::vector<typename P::Msg> accums;
  for (lvid_t v = 0; v < part.num_local(); ++v) {
    if (!s.has_msg[v]) continue;
    snapshot.push_back(v);
    accums.push_back(s.msg[v]);
    s.has_msg[v] = 0;
  }
  c.scanned += part.num_local();
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const lvid_t v = snapshot[i];
    const engine::VertexInfo info = engine::vertex_info<P>(part, v);
    ++c.applies;
    ++c.work;
    const auto payload = prog.apply(s.vdata[v], info, accums[i]);
    if (!payload) continue;
    for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
      const lvid_t u = part.targets[e];
      const typename P::Msg out = prog.scatter(*payload, info,
                                               part.weights[e]);
      engine::deposit_msg(prog, s, u, out);
      if (!part.parallel_mode[e] && part.num_replicas(u) > 1) {
        engine::deposit_delta(prog, s, u, out);
      }
      ++c.work;
    }
  }
  return c;
}

template <class P>
void expect_states_bit_identical(const PartState<P>& a, const PartState<P>& b,
                                 const char* what) {
  ASSERT_EQ(a.has_msg, b.has_msg) << what;
  ASSERT_EQ(a.has_delta, b.has_delta) << what;
  for (std::size_t v = 0; v < a.has_msg.size(); ++v) {
    if (a.has_msg[v]) {
      EXPECT_EQ(a.msg[v], b.msg[v]) << what << " msg " << v;
    }
    if (a.has_delta[v]) {
      EXPECT_EQ(a.delta[v], b.delta[v]) << what << " delta " << v;
    }
  }
}

TEST(LocalSweep, EmptyFrontierDoesZeroWorkAndZeroScan) {
  SweepRig<algos::SSSP> rig(gen::erdos_renyi(300, 1200, 5, {1.0f, 4.0f}));
  PartState<algos::SSSP> snap = rig.state();  // snapshot-mode copy
  const SweepCounters gs = engine::local_sweep(rig.prog, rig.part(),
                                               rig.state());
  EXPECT_EQ(gs.work, 0u);
  EXPECT_EQ(gs.applies, 0u);
  EXPECT_EQ(gs.scanned, 0u);  // sparse + empty: no flag slot examined
  const SweepCounters sc = engine::local_sweep(rig.prog, rig.part(), snap,
                                               SweepMode::kSnapshot);
  EXPECT_EQ(sc.work, 0u);
  EXPECT_EQ(sc.applies, 0u);
  EXPECT_EQ(sc.scanned, 0u);
}

TEST(LocalSweep, AllActiveDenseMatchesReferenceScan) {
  SweepRig<algos::SSSP> rig(gen::erdos_renyi(400, 2400, 7, {1.0f, 4.0f}));
  const lvid_t n = rig.part().num_local();
  for (lvid_t v = 0; v < n; ++v) {
    engine::deposit_msg(rig.prog, rig.state(), v, 1.0 + 0.25 * v);
  }
  ASSERT_TRUE(rig.state().frontier.is_dense());  // n activations >> n/8
  PartState<algos::SSSP> ref = rig.state();

  const SweepCounters got = engine::local_sweep(rig.prog, rig.part(),
                                                rig.state());
  const SweepCounters want = reference_scan_sweep(rig.prog, rig.part(), ref);
  EXPECT_EQ(got.work, want.work);
  EXPECT_EQ(got.applies, want.applies);
  for (lvid_t v = 0; v < n; ++v) {
    EXPECT_EQ(rig.state().vdata[v].dist, ref.vdata[v].dist) << v;
  }
  expect_states_bit_identical(rig.state(), ref, "dense");
}

// Property test: sparse worklist-driven Gauss-Seidel sweeps equal the
// historical whole-array scan exactly, across random graphs, random seed
// sets, and cascades that may or may not cross the density threshold. This
// is the test that failed before the carry/heap worklist fix.
TEST(LocalSweep, SparseWorklistMatchesReferenceScanProperty) {
  for (const std::uint64_t seed : {3u, 11u, 42u, 97u, 1234u}) {
    SweepRig<algos::SSSP> rig(
        gen::erdos_renyi(300, 1500, seed, {1.0f, 6.0f}));
    std::mt19937_64 rng(seed * 7919);
    const lvid_t n = rig.part().num_local();
    const std::size_t n_seeds = 1 + rng() % 40;  // below threshold: sparse
    for (std::size_t i = 0; i < n_seeds; ++i) {
      const auto v = static_cast<lvid_t>(rng() % n);
      const double m = 0.5 + static_cast<double>(rng() % 1000) / 100.0;
      engine::deposit_msg(rig.prog, rig.state(), v, m);
    }
    ASSERT_FALSE(rig.state().frontier.is_dense());
    PartState<algos::SSSP> ref = rig.state();

    // Run several consecutive sweeps so carried-over activations (behind the
    // cursor) and re-sparsified frontiers are exercised too.
    for (int sweep = 0; sweep < 4; ++sweep) {
      const SweepCounters got = engine::local_sweep(rig.prog, rig.part(),
                                                    rig.state());
      const SweepCounters want = reference_scan_sweep(rig.prog, rig.part(),
                                                      ref);
      ASSERT_EQ(got.work, want.work) << "seed " << seed << " sweep " << sweep;
      ASSERT_EQ(got.applies, want.applies)
          << "seed " << seed << " sweep " << sweep;
      for (lvid_t v = 0; v < n; ++v) {
        ASSERT_EQ(rig.state().vdata[v].dist, ref.vdata[v].dist)
            << "seed " << seed << " sweep " << sweep << " vertex " << v;
      }
      expect_states_bit_identical(rig.state(), ref, "sparse property");
    }
  }
}

// A hub fan-out crosses the density threshold in the middle of a sparse
// sweep; the dense-fallback path must still match the serial scan.
TEST(LocalSweep, DenseSwitchMidSweepMatchesReferenceScan) {
  const vid_t n = 600;  // threshold = max(64, 75) = 75 << hub fan-out
  std::vector<Edge> edges;
  for (vid_t v = 1; v < n; ++v) edges.push_back({0, v, 1.0f});
  SweepRig<algos::SSSP> rig(Graph(n, std::move(edges)));

  engine::deposit_msg(rig.prog, rig.state(), 0, 0.0);
  ASSERT_FALSE(rig.state().frontier.is_dense());
  PartState<algos::SSSP> ref = rig.state();

  const SweepCounters got = engine::local_sweep(rig.prog, rig.part(),
                                                rig.state());
  const SweepCounters want = reference_scan_sweep(rig.prog, rig.part(), ref);
  EXPECT_TRUE(rig.state().frontier.is_dense());  // fan-out flipped it
  EXPECT_EQ(got.applies, want.applies);          // hub + all leaves, one sweep
  EXPECT_EQ(got.work, want.work);
  for (lvid_t v = 0; v < rig.part().num_local(); ++v) {
    EXPECT_EQ(rig.state().vdata[v].dist, ref.vdata[v].dist) << v;
  }
  expect_states_bit_identical(rig.state(), ref, "mid-sweep switch");
}

// Exact-boundary regression for the mid-sweep switch: with threshold T, a
// hub fan-out of exactly T activations lands the list at exactly T entries
// (the sweep drains the entry list into its heap before processing, so the
// hub's own entry is gone) and must stay sparse; a fan-out of T+1 is the
// first to flip dense mid-sweep. Both sides of the boundary must match the
// serial reference scan bit-for-bit.
TEST(LocalSweep, ExactBoundaryFanOutMidSweep) {
  const vid_t n = 600;  // threshold = max(64, 600/8) = 75
  for (const vid_t fanout : {vid_t{75}, vid_t{76}}) {
    std::vector<Edge> edges;
    for (vid_t v = 1; v <= fanout; ++v) edges.push_back({0, v, 1.0f});
    SweepRig<algos::SSSP> rig(Graph(n, std::move(edges)));

    engine::deposit_msg(rig.prog, rig.state(), 0, 0.0);
    ASSERT_FALSE(rig.state().frontier.is_dense());
    PartState<algos::SSSP> ref = rig.state();

    const SweepCounters got = engine::local_sweep(rig.prog, rig.part(),
                                                  rig.state());
    const SweepCounters want = reference_scan_sweep(rig.prog, rig.part(), ref);
    EXPECT_EQ(rig.state().frontier.is_dense(), fanout == 76)
        << "fanout " << fanout;
    if (fanout == 75) {
      // The carried frontier holds exactly the threshold: every leaf was
      // ahead of the cursor, consumed this sweep, and re-listed nowhere —
      // so nothing carries and the next sweep starts empty. What matters
      // here is the representation never degraded.
      EXPECT_FALSE(rig.state().frontier.is_dense());
    }
    EXPECT_EQ(got.applies, want.applies) << "fanout " << fanout;
    EXPECT_EQ(got.work, want.work) << "fanout " << fanout;
    for (lvid_t v = 0; v < rig.part().num_local(); ++v) {
      ASSERT_EQ(rig.state().vdata[v].dist, ref.vdata[v].dist)
          << "fanout " << fanout << " vertex " << v;
    }
    expect_states_bit_identical(rig.state(), ref, "exact boundary");
  }
}

TEST(LocalSweep, SnapshotSweepMatchesReferenceSnapshot) {
  SweepRig<algos::PageRankDelta> rig(gen::rmat(9, 6, 0.5, 0.2, 0.2, 13));
  const lvid_t n = rig.part().num_local();
  for (lvid_t v = 0; v < n; v += 3) {
    engine::deposit_msg(rig.prog, rig.state(), v, 0.01 * (v + 1));
  }
  PartState<algos::PageRankDelta> ref = rig.state();

  const SweepCounters got = engine::local_sweep(
      rig.prog, rig.part(), rig.state(), SweepMode::kSnapshot);
  const SweepCounters want = reference_snapshot_sweep(rig.prog, rig.part(),
                                                      ref);
  EXPECT_EQ(got.work, want.work);
  EXPECT_EQ(got.applies, want.applies);
  for (lvid_t v = 0; v < n; ++v) {
    EXPECT_EQ(rig.state().vdata[v].rank, ref.vdata[v].rank) << v;
    EXPECT_EQ(rig.state().vdata[v].pending_delta, ref.vdata[v].pending_delta)
        << v;
  }
  expect_states_bit_identical(rig.state(), ref, "snapshot");
}

// ------------------------------------------------- engine-level properties

struct EngineRig {
  Graph g;
  partition::DistributedGraph dg;

  EngineRig(Graph graph, machine_t machines)
      : g(std::move(graph)),
        dg(partition::DistributedGraph::build(
            g, machines,
            partition::assign_edges(
                g, machines, {partition::CutKind::kCoordinated, 7}))) {}
};

// Sparse supersteps must not pay O(num_local) scans: BSP SSSP down a path
// graph activates exactly one vertex per superstep (one hop per barrier),
// so a frontier-driven engine examines O(1) slots per superstep where the
// historical dense derive examined O(n) — ~n^2 over the whole run.
TEST(EngineDeterminism, SparseRunAvoidsDenseScans) {
  const vid_t n = 400;
  std::vector<Edge> edges;
  for (vid_t v = 0; v + 1 < n; ++v) {
    edges.push_back({v, static_cast<vid_t>(v + 1), 1.0f});
  }
  EngineRig rig(Graph(n, std::move(edges)), 1);
  sim::Cluster cluster({1, {}, 1});
  engine::RunConfig cfg;
  cfg.kind = engine::EngineKind::kSync;
  const auto r =
      engine::run(cfg, rig.dg, algos::SSSP{.source = 0}, cluster);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.supersteps, static_cast<std::uint64_t>(n) - 2);  // truly sparse
  // Dense scanning would examine ~supersteps * n slots; the frontier should
  // stay orders of magnitude below that.
  const std::uint64_t dense_equivalent =
      r.supersteps * static_cast<std::uint64_t>(n);
  EXPECT_LT(r.metrics.sweep_scanned, dense_equivalent / 10);
  for (vid_t v = 0; v < n; ++v) {
    EXPECT_DOUBLE_EQ(r.data[v].dist, static_cast<double>(v)) << v;
  }
}

}  // namespace
}  // namespace lazygraph
