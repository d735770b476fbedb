// A small fixed-size thread pool plus a deterministic parallel_for.
//
// The cluster simulator and the setup path run independent work on one
// shared instance (shared_pool()). Work items never share mutable state (BSP
// staging), so the pool only needs fork/join semantics; results are merged in
// a fixed order by the caller, keeping every run bit-identical regardless of
// thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lazygraph {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs body(i) for i in [0, n), blocking until all complete.
  /// Exceptions from body are rethrown (first one wins).
  /// Re-entrant calls from one of this pool's own workers execute inline on
  /// the calling thread instead of enqueueing helper tasks (a nested join
  /// could otherwise starve with every worker blocked inside one).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Runs body(begin, end) over [0, n) in chunk_size slices, using at most
  /// max_threads threads (including the caller), blocking until all
  /// complete. One claim per chunk instead of one task per item, so the
  /// per-item overhead is a single relaxed fetch_add amortized over
  /// chunk_size iterations. Safe to call from inside this pool's own workers
  /// (nested inside parallel_for): the caller claims chunks itself until
  /// none remain, so it never blocks waiting on starved helpers — enqueued
  /// helpers only ever accelerate the drain.
  void parallel_for_chunks(
      std::size_t n, std::size_t chunk_size, std::size_t max_threads,
      const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// The process-wide worker pool. Created on first use with
/// hardware_concurrency workers and shared by the setup path (ingest ->
/// partition -> build) and every sim::Cluster: each call bounds its own
/// parallelism (parallel_ranges by its `ranges` count, a Cluster by its
/// configured thread cap), so a wide pool never forces wide execution, and
/// one set of threads serves the whole process.
ThreadPool& shared_pool();

/// Resolves a user-facing thread-count knob: 0 means hardware concurrency,
/// anything else passes through.
std::size_t resolve_threads(std::size_t threads);

/// Splits [0, n) into `ranges` contiguous slices and runs
/// body(range_index, begin, end) for every non-empty slice, on shared_pool()
/// when ranges > 1 (inline otherwise). The decomposition depends only on
/// (n, ranges), and callers merge per-range results in range order (or use
/// commutative folds), so results are bit-identical for any pool width.
void parallel_ranges(
    std::size_t n, std::size_t ranges,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace lazygraph
