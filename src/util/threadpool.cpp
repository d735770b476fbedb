#include "util/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace lazygraph {

namespace {
// Pool whose worker_loop is running on this thread (null on external
// threads). Lets parallel_for detect re-entrant calls from its own workers:
// those must run inline — a worker that enqueues helper tasks and then
// blocks on the join can starve when every other worker is itself blocked
// inside a nested join, since nobody is left to drain the queue.
thread_local const ThreadPool* current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 4;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {
// Shared control block: outlives parallel_for via shared_ptr so late-waking
// workers never touch a dead stack frame.
struct ForState {
  explicit ForState(std::size_t n, std::function<void(std::size_t)> body)
      : n(n), body(std::move(body)) {}

  const std::size_t n;
  const std::function<void(std::size_t)> body;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;

  void run_chunk() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};
}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || workers_.empty() || current_pool == this) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ForState>(n, body);
  const std::size_t fanout = std::min(n - 1, workers_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t t = 0; t < fanout; ++t) {
      tasks_.push([state] { state->run_chunk(); });
    }
  }
  cv_.notify_all();
  state->run_chunk();  // caller participates

  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) >= n;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

namespace {
// Shared control block for parallel_for_chunks; same lifetime discipline as
// ForState. Claims whole chunks: workers fetch the next chunk index and run
// body on its [begin, end) slice.
struct ChunkState {
  ChunkState(std::size_t n, std::size_t chunk_size,
             std::function<void(std::size_t, std::size_t)> body)
      : n(n),
        chunk_size(chunk_size),
        nchunks((n + chunk_size - 1) / chunk_size),
        body(std::move(body)) {}

  const std::size_t n;
  const std::size_t chunk_size;
  const std::size_t nchunks;
  const std::function<void(std::size_t, std::size_t)> body;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;

  void drain() {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) break;
      try {
        const std::size_t begin = c * chunk_size;
        body(begin, std::min(n, begin + chunk_size));
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == nchunks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};
}  // namespace

void ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t chunk_size, std::size_t max_threads,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  const std::size_t nchunks = (n + chunk_size - 1) / chunk_size;
  if (nchunks == 1 || workers_.empty() || max_threads <= 1) {
    for (std::size_t b = 0; b < n; b += chunk_size) {
      body(b, std::min(n, b + chunk_size));
    }
    return;
  }

  // Unlike parallel_for there is no inline-on-reentrancy special case: the
  // caller participates in the drain and chunk bodies never block, so even
  // if every enqueued helper is starved behind blocked workers, the caller
  // alone finishes all chunks — helpers are pure acceleration.
  auto state = std::make_shared<ChunkState>(n, chunk_size, body);
  const std::size_t fanout =
      std::min({nchunks - 1, max_threads - 1, workers_.size()});
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t t = 0; t < fanout; ++t) {
      tasks_.push([state] { state->drain(); });
    }
  }
  cv_.notify_all();
  state->drain();  // caller participates

  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) >= state->nchunks;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& shared_pool() {
  static ThreadPool pool(0);
  return pool;
}

std::size_t resolve_threads(std::size_t threads) {
  if (threads != 0) return threads;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

void parallel_ranges(
    std::size_t n, std::size_t ranges,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (ranges <= 1) {
    body(0, 0, n);
    return;
  }
  ranges = std::min(ranges, n);
  const auto bound = [&](std::size_t r) { return r * n / ranges; };
  shared_pool().parallel_for(ranges, [&](std::size_t r) {
    const std::size_t begin = bound(r), end = bound(r + 1);
    if (begin < end) body(r, begin, end);
  });
}

}  // namespace lazygraph
