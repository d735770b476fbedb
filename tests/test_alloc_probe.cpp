// Allocation-count probe for the hot path: with the slab-arena PartState
// and its pre-reserved sweep scratch, steady-state supersteps perform ZERO
// heap allocations on the serial cluster path. The probe replaces the
// global allocator with counting versions and samples the counter at every
// coherency point; once warm (worklists have reached their high-water
// capacity), each further superstep's delta must be exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "test_support.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lazygraph {
namespace {

/// Runs `prog` and samples g_allocs at each coherency point, returning the
/// per-superstep deltas. The sample vector is pre-reserved so the probe
/// itself never allocates inside the run.
template <class P>
std::vector<std::uint64_t> alloc_deltas(const engine::RunConfig& cfg,
                                        const partition::DistributedGraph& dg,
                                        const P& prog, sim::Cluster& cluster,
                                        std::size_t max_steps) {
  std::vector<std::uint64_t> samples;
  samples.reserve(max_steps);
  const auto r = engine::run(
      cfg, dg, prog, cluster, [&](std::uint64_t, const auto&) {
        if (samples.size() < samples.capacity()) {
          samples.push_back(g_allocs.load(std::memory_order_relaxed));
        }
      });
  EXPECT_TRUE(r.converged);
  std::vector<std::uint64_t> deltas;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    deltas.push_back(samples[i] - samples[i - 1]);
  }
  return deltas;
}

void expect_steady_state_alloc_free(const std::vector<std::uint64_t>& deltas,
                                    std::size_t warmup) {
  ASSERT_GT(deltas.size(), warmup + 2)
      << "run too short for a steady-state window";
  for (std::size_t i = warmup; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i], 0u) << "superstep " << i + 1 << " allocated";
  }
}

TEST(AllocProbe, SyncEngineSteadyStateAllocatesNothing) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05);
  const auto dg = testsupport::build_dgraph(g, 4);
  auto cluster = testsupport::make_cluster(4);
  // Warmup 3: worklists hit their high-water marks while the frontier is
  // still near-full.
  expect_steady_state_alloc_free(
      alloc_deltas({.kind = engine::EngineKind::kSync},
                   dg, algos::PageRankDelta{.tol = 1e-3}, cluster, 256),
      3);
}

TEST(AllocProbe, LazyBlockEngineSteadyStateAllocatesNothing) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05);
  const auto dg =
      testsupport::build_dgraph(g, 4, partition::CutKind::kCoordinated, 7,
                                /*split=*/true);
  auto cluster = testsupport::make_cluster(4);
  expect_steady_state_alloc_free(
      alloc_deltas({.kind = engine::EngineKind::kLazyBlock},
                   dg, algos::PageRankDelta{.tol = 1e-3}, cluster, 256),
      3);
}

}  // namespace
}  // namespace lazygraph
