// The serving layer: batched multi-source execution (lane bit-identity
// against solo runs across engines and thread counts, per-lane coherency
// accounting and lane dropout), the admission/batching policy, the
// deterministic traffic generator, the end-to-end QueryServer with its
// solo-verification mode, the ArtifactCache byte-budget LRU, and the
// multi-seed diffusion constructor path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "test_support.hpp"

namespace lazygraph {
namespace {

using engine::EngineKind;
using testsupport::build_dgraph;

constexpr EngineKind kAllKinds[] = {EngineKind::kSync, EngineKind::kAsync,
                                    EngineKind::kLazyBlock,
                                    EngineKind::kLazyVertex};

const Graph& test_graph() {
  static const Graph g = gen::rmat(8, 8, 0.57, 0.19, 0.19, 5, {0.5f, 9.5f});
  return g;
}

constexpr machine_t kMachines = 4;

const partition::DistributedGraph& test_dg() {
  static const partition::DistributedGraph dg =
      build_dgraph(test_graph(), kMachines);
  return dg;
}

/// Runs the batch, then every lane's query solo through the identical
/// engine path, and requires each lane to uphold the contract: state
/// bit-identity (or `slack`-bounded for fp families) and, where the engine
/// guarantees the schedule, equal live-coherency-point counts.
template <class P>
void ExpectBatchMatchesSolo(const partition::DistributedGraph& dg,
                            const std::vector<P>& progs, EngineKind kind,
                            std::size_t threads, double slack = 0.0) {
  engine::RunConfig cfg;
  cfg.kind = kind;
  sim::Cluster cluster({dg.num_machines(), {}, threads});
  const auto batched = serve::run_batched(dg, progs, cfg, cluster);
  ASSERT_TRUE(batched.converged) << to_string(kind);
  ASSERT_EQ(batched.lanes.size(), progs.size());
  const bool points = serve::points_must_match(kind);
  for (std::size_t i = 0; i < progs.size(); ++i) {
    sim::Cluster solo_cluster({dg.num_machines(), {}, 1});
    const auto solo = serve::run_solo(dg, progs[i], cfg, solo_cluster);
    ASSERT_TRUE(solo.converged);
    const auto f = serve::verify_lane(batched.lanes[i], solo, slack, points);
    EXPECT_FALSE(f.has_value()) << to_string(kind) << " threads=" << threads
                                << " lane " << i << ": " << f.value_or("");
  }
}

// --- batched executor: bit-identity matrix ---

TEST(BatchedExecutor, SsspLanesMatchSoloOnEveryEngineAndThreadCount) {
  std::vector<algos::SSSP> progs;
  for (const vid_t s : {0u, 3u, 17u, 101u, 200u}) {
    progs.push_back({.source = s});
  }
  for (const EngineKind kind : kAllKinds) {
    for (const std::size_t threads : {1u, 4u}) {
      ExpectBatchMatchesSolo(test_dg(), progs, kind, threads);
    }
  }
}

TEST(BatchedExecutor, BfsLanesMatchSoloOnEveryEngineAndThreadCount) {
  std::vector<algos::BFS> progs;
  for (const vid_t s : {1u, 5u, 42u, 128u, 255u}) {
    progs.push_back({.source = s});
  }
  for (const EngineKind kind : kAllKinds) {
    for (const std::size_t threads : {1u, 4u}) {
      ExpectBatchMatchesSolo(test_dg(), progs, kind, threads);
    }
  }
}

TEST(BatchedExecutor, WidestLanesMatchSoloOnEveryEngineAndThreadCount) {
  std::vector<algos::WidestPath> progs;
  for (const vid_t s : {0u, 9u, 77u, 130u, 222u}) {
    progs.push_back({.source = s});
  }
  for (const EngineKind kind : kAllKinds) {
    for (const std::size_t threads : {1u, 4u}) {
      ExpectBatchMatchesSolo(test_dg(), progs, kind, threads);
    }
  }
}

TEST(BatchedExecutor, SsspLanesMatchSoloOnParallelEdgesGraph) {
  const partition::DistributedGraph dg =
      build_dgraph(test_graph(), kMachines, partition::CutKind::kCoordinated,
                   7, /*split=*/true);
  ASSERT_GT(dg.parallel_edge_copies(), 0u);
  std::vector<algos::SSSP> progs;
  for (const vid_t s : {0u, 17u, 200u}) progs.push_back({.source = s});
  for (const EngineKind kind :
       {EngineKind::kLazyBlock, EngineKind::kLazyVertex}) {
    ExpectBatchMatchesSolo(dg, progs, kind, 1);
  }
}

TEST(BatchedExecutor, KcoreThresholdLanesMatchSolo) {
  // k-core runs on the symmetrized view, like everywhere else in the suite.
  const partition::DistributedGraph dg =
      build_dgraph(test_graph().symmetrized(), kMachines);
  std::vector<algos::KCore> progs;
  for (const std::uint32_t k : {1u, 3u, 5u, 9u}) progs.push_back({.k = k});
  for (const EngineKind kind : kAllKinds) {
    ExpectBatchMatchesSolo(dg, progs, kind, 1);
  }
}

TEST(BatchedExecutor, DiffusionSeedLanesBitExactUnderSyncBoundedUnderLazy) {
  std::vector<algos::LinearDiffusion> progs;
  for (const vid_t s : {0u, 17u, 200u}) {
    progs.push_back({.alpha = 0.5, .seed = s, .tol = 1e-7});
  }
  // Sync lockstep: the lane trajectory IS the solo trajectory, so even the
  // fp family is bit-exact.
  ExpectBatchMatchesSolo(test_dg(), progs, EngineKind::kSync, 1, 0.0);
  ExpectBatchMatchesSolo(test_dg(), progs, EngineKind::kSync, 7, 0.0);
  // Lazy engines reassociate apply-splitting; same headroom rule the fuzz
  // oracle grants the plain program.
  for (const EngineKind kind :
       {EngineKind::kLazyBlock, EngineKind::kLazyVertex}) {
    ExpectBatchMatchesSolo(test_dg(), progs, kind, 1, 100.0 * 1e-7 / 0.5);
  }
}

TEST(BatchedExecutor, RejectsEmptyAndOversizedBatches) {
  engine::RunConfig cfg;
  sim::Cluster cluster({kMachines, {}, 1});
  const std::vector<algos::BFS> none;
  EXPECT_THROW(serve::run_batched(test_dg(), none, cfg, cluster),
               std::invalid_argument);
  const std::vector<algos::BFS> many(serve::kMaxBatchLanes + 1,
                                     algos::BFS{.source = 0});
  EXPECT_THROW(serve::run_batched(test_dg(), many, cfg, cluster),
               std::invalid_argument);
}

// --- lane dropout: converged lanes leave the delta exchange ---

TEST(BatchedExecutor, ConvergedLanesDropOutOfCoherencyAccounting) {
  // On a directed path 0 -> 1 -> ... -> n-1, a lane sourced at the tail
  // converges immediately while a lane sourced at the head stays live for
  // the whole propagation; per-lane live-point counts must reflect that.
  const vid_t n = 24;
  const Graph path = gen::path(n, {1.0f, 1.0f});
  const partition::DistributedGraph dg = build_dgraph(path, 3);
  std::vector<algos::BFS> progs{{.source = 0}, {.source = n - 1}};
  engine::RunConfig cfg;
  cfg.kind = EngineKind::kSync;
  sim::Cluster cluster({3, {}, 1});
  const auto batched = serve::run_batched(dg, progs, cfg, cluster);
  ASSERT_TRUE(batched.converged);
  EXPECT_GT(batched.lanes[0].live_points, batched.lanes[1].live_points + 5);
  // And the counts are exactly the solo counts (sync guarantees this).
  for (std::size_t i = 0; i < progs.size(); ++i) {
    sim::Cluster sc({3, {}, 1});
    const auto solo = serve::run_solo(dg, progs[i], cfg, sc);
    EXPECT_EQ(batched.lanes[i].live_points, solo.lanes[0].live_points) << i;
  }
}

// --- lanes_pending: flag-word walk vs. the per-slot scan ---

TEST(LanesPending, MatchesPerSlotScanOnRaggedParts) {
  constexpr std::size_t K = 4;
  using BP = serve::BatchedProgram<algos::BFS, K>;
  // Part sizes straddle the 64-bit flag words, including ragged tails.
  const lvid_t sizes[] = {1, 63, 64, 100, 130};
  std::vector<engine::PartState<BP>> states(std::size(sizes));
  const auto scan = [&states] {
    std::array<std::uint8_t, K> live{};
    for (const auto& s : states) {
      for (std::size_t v = 0; v < s.has_msg.size(); ++v) {
        for (std::size_t i = 0; i < K; ++i) {
          if (s.has_msg[v]) live[i] |= s.msg[v].has[i];
          if (s.has_delta[v]) live[i] |= s.delta[v].has[i];
        }
      }
    }
    return live;
  };
  for (std::size_t m = 0; m < states.size(); ++m) states[m].resize(sizes[m]);
  EXPECT_EQ(serve::lanes_pending(states), scan());  // all clear

  // Unflagged slots may hold stale lane masks; they must not count.
  states[1].msg[5].has[2] = 1;
  states[3].delta[40].has[2] = 1;
  // Lane 3 is live only in the last slot of the 100-slot part's tail word.
  states[3].has_delta.set(99);
  states[3].delta[99].has[3] = 1;
  EXPECT_EQ(serve::lanes_pending(states), scan());
  EXPECT_EQ(serve::lanes_pending(states),
            (std::array<std::uint8_t, K>{0, 0, 0, 1}));

  std::uint64_t x = 12345;
  for (int round = 0; round < 20; ++round) {
    for (auto& s : states) {
      for (std::size_t v = 0; v < s.has_msg.size(); ++v) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        if ((x >> 60) == 0) s.has_msg.set(v);
        if ((x >> 56 & 15) == 0) s.has_delta.set(v);
        if ((x >> 52 & 15) == 0) s.msg[v].has[(x >> 40) % K] = 1;
        if ((x >> 48 & 15) == 0) s.delta[v].has[(x >> 36) % K] = 1;
      }
    }
    EXPECT_EQ(serve::lanes_pending(states), scan()) << "round " << round;
  }
}

// --- traffic generator ---

TEST(Traffic, DeterministicSortedAndInRange) {
  serve::TrafficOptions t;
  t.seed = 9;
  t.num_queries = 96;
  t.w_kcore = 0.5;
  const auto a = serve::make_traffic(t, 256);
  const auto b = serve::make_traffic(t, 256);
  ASSERT_EQ(a.size(), 96u);
  ASSERT_EQ(b.size(), 96u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].k, b[i].k);
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_LT(a[i].tenant, t.tenants);
    if (a[i].family == serve::QueryFamily::kKcore) {
      EXPECT_GE(a[i].k, 1u);
      EXPECT_LE(a[i].k, t.kcore_max_k);
    } else {
      EXPECT_LT(a[i].source, 256u);
    }
    if (i > 0) {
      EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
    }
  }
  // A different seed produces a different stream.
  t.seed = 10;
  const auto c = serve::make_traffic(t, 256);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    differs |= c[i].arrival_seconds != a[i].arrival_seconds ||
               c[i].source != a[i].source;
  }
  EXPECT_TRUE(differs);
}

TEST(Traffic, ZipfSkewConcentratesSources) {
  serve::TrafficOptions t;
  t.num_queries = 200;
  t.w_bfs = 1.0;
  t.w_sssp = t.w_widest = t.w_diffusion = 0.0;
  auto distinct = [&](double skew) {
    t.zipf_skew = skew;
    std::set<vid_t> sources;
    for (const auto& q : serve::make_traffic(t, 512)) sources.insert(q.source);
    return sources.size();
  };
  EXPECT_LT(distinct(3.0), distinct(0.0) / 2);
}

TEST(Traffic, RejectsDegenerateOptions) {
  serve::TrafficOptions t;
  t.w_sssp = t.w_bfs = t.w_widest = t.w_diffusion = t.w_kcore = 0.0;
  EXPECT_THROW(serve::make_traffic(t, 16), std::invalid_argument);
  serve::TrafficOptions zero_rate;
  zero_rate.rate_qps = 0.0;
  EXPECT_THROW(serve::make_traffic(zero_rate, 16), std::invalid_argument);
  serve::TrafficOptions empty_graph;  // source families on, no vertices
  EXPECT_THROW(serve::make_traffic(empty_graph, 0), std::invalid_argument);
}

// --- admission policy ---

std::shared_ptr<const partition::DistributedGraph> shared_test_dg() {
  return std::make_shared<const partition::DistributedGraph>(
      build_dgraph(test_graph(), kMachines));
}

serve::Query q_at(std::uint64_t id, double arrival, vid_t source = 0) {
  serve::Query q;
  q.id = id;
  q.family = serve::QueryFamily::kBfs;
  q.source = source;
  q.arrival_seconds = arrival;
  return q;
}

TEST(BatchPolicy, HeadWaitsMaxWaitWhenTheBatchNeverFills) {
  serve::ServeOptions o;
  o.run.kind = EngineKind::kSync;
  o.policy.max_lanes = 16;
  o.policy.max_wait_seconds = 0.5;
  serve::QueryServer server(shared_test_dg(), o);
  // Three same-family arrivals, far fewer than max_lanes: the head must
  // wait out the full deadline, pick up q1, and leave q2 (arrives later)
  // for the next batch.
  const auto rep =
      server.serve({q_at(0, 0.0, 3), q_at(1, 0.25, 9), q_at(2, 2.0, 17)});
  ASSERT_EQ(rep.records.size(), 3u);
  ASSERT_EQ(rep.batches, 2u);
  EXPECT_EQ(rep.records[0].query.id, 0u);
  EXPECT_DOUBLE_EQ(rep.records[0].queue_seconds, 0.5);
  EXPECT_DOUBLE_EQ(rep.records[1].queue_seconds, 0.25);
  EXPECT_EQ(rep.records[0].batch_width, 2u);
  EXPECT_EQ(rep.records[2].batch_width, 1u);
}

TEST(BatchPolicy, DispatchesEarlyWhenTheBatchFills) {
  serve::ServeOptions o;
  o.run.kind = EngineKind::kSync;
  o.policy.max_lanes = 2;
  o.policy.max_wait_seconds = 0.5;
  serve::QueryServer server(shared_test_dg(), o);
  // max_lanes = 2: the second same-family arrival fills the batch at
  // t = 0.25, before the 0.5 deadline.
  const auto rep = server.serve({q_at(0, 0.0, 3), q_at(1, 0.25, 9)});
  ASSERT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_DOUBLE_EQ(rep.records[0].queue_seconds, 0.25);
  EXPECT_DOUBLE_EQ(rep.records[1].queue_seconds, 0.0);
}

TEST(BatchPolicy, MaxLanesOneDisablesBatching) {
  serve::ServeOptions o;
  o.run.kind = EngineKind::kSync;
  o.policy.max_lanes = 1;
  o.policy.max_wait_seconds = 0.0;
  serve::QueryServer server(shared_test_dg(), o);
  const auto rep = server.serve({q_at(0, 0.0, 3), q_at(1, 0.0, 9)});
  EXPECT_EQ(rep.batches, 2u);
  for (const auto& r : rep.records) EXPECT_EQ(r.batch_width, 1u);
}

TEST(BatchPolicy, FamiliesNeverMixInOneBatch) {
  serve::ServeOptions o;
  o.run.kind = EngineKind::kSync;
  o.policy.max_lanes = 16;
  o.policy.max_wait_seconds = 10.0;
  serve::QueryServer server(shared_test_dg(), o);
  std::vector<serve::Query> qs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    auto q = q_at(i, 0.0, static_cast<vid_t>(i));
    q.family = i % 2 ? serve::QueryFamily::kSssp : serve::QueryFamily::kBfs;
    qs.push_back(q);
  }
  const auto rep = server.serve(qs);
  EXPECT_EQ(rep.batches, 2u);
  for (const auto& r : rep.records) EXPECT_EQ(r.batch_width, 3u);
}

// --- end-to-end server, with the solo-verification self-check on ---

TEST(QueryServer, ServesMixedTrafficAndVerifiesEveryLaneAgainstSolo) {
  serve::TrafficOptions t;
  t.seed = 3;
  t.num_queries = 32;
  t.rate_qps = 50.0;
  t.w_kcore = 0.3;
  const auto queries = serve::make_traffic(t, test_graph().num_vertices());

  serve::ServeOptions o;
  o.run.kind = EngineKind::kLazyBlock;
  o.policy.max_lanes = 8;
  o.verify_solo = true;  // throws on any batched-vs-solo divergence
  serve::QueryServer server(shared_test_dg(), o);
  const auto rep = server.serve(queries);

  ASSERT_EQ(rep.records.size(), 32u);
  EXPECT_EQ(rep.verified_lanes, 32u);
  EXPECT_GT(rep.batches, 0u);
  EXPECT_GT(rep.makespan_seconds, 0.0);
  EXPECT_GT(rep.queries_per_second(), 0.0);

  std::uint64_t by_width = 0, by_tenant = 0;
  for (std::size_t w = 0; w < rep.width_histogram.size(); ++w) {
    by_width += w * rep.width_histogram[w];
  }
  for (const auto& [tenant, count] : rep.tenant_queries) by_tenant += count;
  EXPECT_EQ(by_width, 32u);
  EXPECT_EQ(by_tenant, 32u);

  for (const auto& r : rep.records) {
    EXPECT_GE(r.queue_seconds, 0.0);
    EXPECT_GT(r.service_seconds, 0.0);
    EXPECT_DOUBLE_EQ(r.latency_seconds,
                     r.queue_seconds + r.service_seconds);
    EXPECT_GE(r.batch_width, 1u);
  }
  EXPECT_LE(rep.queue_percentile(50), rep.queue_percentile(99));
  EXPECT_LE(rep.latency_percentile(50), rep.latency_percentile(99));
  EXPECT_GE(rep.latency_percentile(50), rep.service_percentile(50));
}

TEST(QueryServer, ReportIsDeterministicAcrossRunsAndClusterThreads) {
  serve::TrafficOptions t;
  t.seed = 12;
  t.num_queries = 16;
  const auto queries = serve::make_traffic(t, test_graph().num_vertices());
  auto run_with = [&](std::size_t cluster_threads) {
    serve::ServeOptions o;
    o.run.kind = EngineKind::kLazyBlock;
    o.cluster_threads = cluster_threads;
    serve::QueryServer server(shared_test_dg(), o);
    return server.serve(queries);
  };
  const auto a = run_with(1);
  const auto b = run_with(1);
  const auto c = run_with(2);
  for (const auto* other : {&b, &c}) {
    ASSERT_EQ(a.records.size(), other->records.size());
    EXPECT_EQ(a.makespan_seconds, other->makespan_seconds);
    EXPECT_EQ(a.batches, other->batches);
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      EXPECT_EQ(a.records[i].query.id, other->records[i].query.id);
      EXPECT_EQ(a.records[i].digest, other->records[i].digest);
      EXPECT_EQ(a.records[i].live_points, other->records[i].live_points);
      EXPECT_EQ(a.records[i].latency_seconds,
                other->records[i].latency_seconds);
    }
  }
}

// The report's metrics are the sum over its batch runs — exchange bytes
// included — with the peak state footprint folded as a max.
TEST(QueryServer, ReportMetricsSumEveryBatchRun) {
  serve::TrafficOptions t;
  t.seed = 5;
  t.num_queries = 24;
  t.w_bfs = 1.0;
  t.w_sssp = t.w_widest = t.w_diffusion = t.w_kcore = 0.0;
  const auto queries = serve::make_traffic(t, test_graph().num_vertices());
  serve::ServeOptions o;
  o.run.kind = EngineKind::kLazyBlock;
  o.policy.max_lanes = 4;
  const auto rep = serve::QueryServer(shared_test_dg(), o).serve(queries);

  // Re-run every batch with the lane programs the server built for it.
  std::map<std::uint64_t, std::vector<algos::BFS>> batches;
  for (const auto& r : rep.records) {
    auto& progs = batches[r.batch_id];
    progs.resize(r.batch_width);
    progs[r.lane] = algos::BFS{r.query.source};
  }
  ASSERT_EQ(batches.size(), rep.batches);
  std::uint64_t wire = 0, raw = 0, state = 0;
  for (const auto& [id, progs] : batches) {
    sim::Cluster cluster({kMachines, {}, o.cluster_threads});
    const auto out = serve::run_batched(test_dg(), progs, o.run, cluster);
    wire += out.metrics.exchange_bytes_wire;
    raw += out.metrics.exchange_bytes_raw;
    state = std::max<std::uint64_t>(state, out.metrics.state_bytes);
  }
  EXPECT_GT(rep.metrics.exchange_bytes_wire, 0u);
  EXPECT_EQ(rep.metrics.exchange_bytes_wire, wire);
  EXPECT_EQ(rep.metrics.exchange_bytes_raw, raw);
  EXPECT_GT(rep.metrics.state_bytes, 0u);
  EXPECT_EQ(rep.metrics.state_bytes, state);
}

// --- ArtifactCache byte-budget LRU ---

Graph cache_graph(std::uint64_t seed) {
  return gen::erdos_renyi(64, 256, seed, {1.0f, 2.0f});
}

TEST(ArtifactCacheLru, BudgetEvictsLeastRecentlyUsed) {
  partition::ArtifactCache cache;
  // Three distinct graphs; establish the per-entry footprint first.
  cache.dgraph(cache_graph(1), 4, {});
  const std::uint64_t one = cache.stats().resident_bytes;
  ASSERT_GT(one, 0u);
  cache.dgraph(cache_graph(2), 4, {});
  cache.dgraph(cache_graph(3), 4, {});
  ASSERT_EQ(cache.stats().evictions(), 0u);
  const std::uint64_t three = cache.stats().resident_bytes;

  // Touch graph 1 so graph 2 becomes the LRU, then shrink the budget to
  // force one eviction round.
  cache.dgraph(cache_graph(1), 4, {});
  EXPECT_GT(cache.stats().dgraph_hits, 0u);
  cache.set_byte_budget(three - one / 2);
  const auto st = cache.stats();
  EXPECT_GT(st.evictions(), 0u);
  EXPECT_GT(st.evicted_bytes, 0u);
  EXPECT_LE(st.resident_bytes, cache.byte_budget());
  EXPECT_EQ(st.evictions(), st.assignment_evictions + st.dgraph_evictions);

  // The recently-touched graph survived; the LRU one did not.
  const auto before = cache.stats();
  cache.dgraph(cache_graph(1), 4, {});
  EXPECT_EQ(cache.stats().dgraph_misses, before.dgraph_misses);
  cache.dgraph(cache_graph(2), 4, {});
  EXPECT_EQ(cache.stats().dgraph_misses, before.dgraph_misses + 1);
}

TEST(ArtifactCacheLru, ZeroBudgetMeansUnbounded) {
  partition::ArtifactCache cache;
  EXPECT_EQ(cache.byte_budget(), 0u);
  for (std::uint64_t s = 1; s <= 8; ++s) cache.dgraph(cache_graph(s), 4, {});
  EXPECT_EQ(cache.stats().evictions(), 0u);
  EXPECT_GT(cache.stats().resident_bytes, 0u);
}

TEST(ArtifactCacheLru, EvictedArtifactStaysAliveForHolders) {
  partition::ArtifactCache cache;
  const auto held = cache.dgraph(cache_graph(1), 4, {});
  cache.set_byte_budget(1);  // evicts everything cached
  EXPECT_GT(cache.stats().evictions(), 0u);
  EXPECT_EQ(held->num_global_vertices(), 64u);  // still valid
  // Re-requesting recomputes (a miss), and the rebuilt artifact matches.
  const auto rebuilt = cache.dgraph(cache_graph(1), 4, {});
  EXPECT_EQ(rebuilt->num_global_vertices(), held->num_global_vertices());
  EXPECT_GE(cache.stats().dgraph_misses, 2u);
}

TEST(ArtifactCacheLru, GlobalCacheKeepsUnboundedDefault) {
  EXPECT_EQ(partition::ArtifactCache::global().byte_budget(), 0u);
}

// --- multi-seed diffusion ---

TEST(MultiSeedDiffusion, MatchesReferenceWithSeedSetBias) {
  const Graph& g = test_graph();
  const std::vector<vid_t> seeds = {3, 99, 3, 200};  // dup dropped
  const auto prog = algos::LinearDiffusion::multi_seed(seeds, 0.5, 1e-8);
  EXPECT_EQ(prog.seeds, (std::vector<vid_t>{3, 99, 200}));
  EXPECT_TRUE(prog.is_seed(99));
  EXPECT_FALSE(prog.is_seed(98));

  const auto dg = build_dgraph(g, kMachines);
  sim::Cluster cluster({kMachines, {}, 1});
  const auto r =
      engine::run({.kind = EngineKind::kLazyBlock}, dg, prog, cluster);
  ASSERT_TRUE(r.converged);

  std::vector<double> bias(g.num_vertices(), 0.0);
  for (const vid_t s : prog.seeds) bias[s] += 1.0;
  const auto ref = reference::linear_diffusion(g, bias, 0.5, 1e-13, 50'000);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(r.data[v].value, ref[v], 300.0 * 1e-8 / 0.5) << v;
  }
}

TEST(MultiSeedDiffusion, SingleSeedPathUnchanged) {
  // The aggregate single-seed path must behave exactly as before the
  // `seeds` member existed.
  const algos::LinearDiffusion prog{.alpha = 0.5, .seed = 7};
  EXPECT_TRUE(prog.is_seed(7));
  EXPECT_FALSE(prog.is_seed(8));
  EXPECT_DOUBLE_EQ(prog.bias(7), 1.0);
  EXPECT_DOUBLE_EQ(prog.bias(8), 0.0);
}

}  // namespace
}  // namespace lazygraph
