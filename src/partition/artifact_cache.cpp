#include "partition/artifact_cache.hpp"

#include <chrono>
#include <cstring>
#include <map>
#include <tuple>

#include "partition/edge_splitter.hpp"

namespace lazygraph::partition {

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// (graph content, partition config). n and m ride along with the content
// hash as cheap collision guards.
using AssignmentKey =
    std::tuple<std::uint64_t, vid_t, std::uint64_t,  // content_hash, n, m
               machine_t, int, std::uint64_t,        // machines, kind, seed
               std::uint32_t>;                       // hybrid_threshold

// Assignment key + the split plan baked into the build. Split parameters
// enter as raw double bits: the selector is a pure function of them, so
// bit-equal options mean bit-equal split sets.
using DgraphKey = std::tuple<AssignmentKey, bool, std::uint64_t,
                             std::uint64_t, std::uint64_t, std::uint32_t>;

AssignmentKey make_assignment_key(const Graph& g, machine_t machines,
                                  const PartitionOptions& opts) {
  return {g.content_hash(), g.num_vertices(), g.num_edges(),
          machines,         static_cast<int>(opts.kind),
          opts.seed,        opts.hybrid_threshold};
}

bool split_active(const EdgeSplitterOptions& split) {
  return split.enabled && split.t_extra > 0.0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr std::size_t kMaxEntries = 1024;

template <class T>
std::uint64_t vec_bytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

// Estimated resident footprint of the cached artifacts — deterministic
// (sizes, not capacities) so budget behavior is reproducible. Hash-map and
// nested-vector overheads are approximated per entry; the goal is a stable
// figure a budget can act on, not an allocator audit.
std::uint64_t artifact_bytes(const Assignment& a) {
  return sizeof(Assignment) + vec_bytes(a.edge_machine);
}

std::uint64_t artifact_bytes(const DistributedGraph& dg) {
  std::uint64_t b = sizeof(DistributedGraph);
  // master_of_ / master_lvid_of_ (one entry per global vertex).
  b += static_cast<std::uint64_t>(dg.num_global_vertices()) *
       (sizeof(machine_t) + sizeof(lvid_t));
  for (const Part& p : dg.parts()) {
    b += sizeof(Part);
    b += vec_bytes(p.gids) + vec_bytes(p.replica_mask) +
         vec_bytes(p.master) + vec_bytes(p.master_lvid) +
         vec_bytes(p.global_out_degree) + vec_bytes(p.global_total_degree) +
         vec_bytes(p.local_in_degree) + vec_bytes(p.offsets) +
         vec_bytes(p.targets) + vec_bytes(p.weights) +
         vec_bytes(p.parallel_mode);
    b += p.remote_replicas.size() *
         sizeof(std::vector<std::pair<machine_t, lvid_t>>);
    for (const auto& r : p.remote_replicas) b += vec_bytes(r);
  }
  return b;
}

}  // namespace

struct ArtifactCache::Impl {
  template <class T>
  struct Entry {
    std::shared_ptr<const T> value;
    std::uint64_t bytes = 0;
    std::uint64_t last_used = 0;  // recency stamp (monotone tick)
  };

  mutable std::mutex mu;
  std::map<AssignmentKey, Entry<Assignment>> assignments;
  std::map<DgraphKey, Entry<DistributedGraph>> dgraphs;
  ArtifactStats stats;
  std::uint64_t byte_budget = 0;  // 0 = unbounded
  std::uint64_t tick = 0;

  template <class T>
  void touch(Entry<T>& e) {
    e.last_used = ++tick;
  }

  template <class Map, class Value>
  void insert(Map& map, const typename Map::key_type& key,
              std::shared_ptr<const Value> value) {
    typename Map::mapped_type e;
    e.value = std::move(value);
    e.bytes = artifact_bytes(*e.value);
    touch(e);
    stats.resident_bytes += e.bytes;
    map.emplace(key, std::move(e));
    enforce_limits();
  }

  bool over_limits() const {
    if (assignments.size() + dgraphs.size() > kMaxEntries) return true;
    return byte_budget > 0 && stats.resident_bytes > byte_budget;
  }

  // Evicts globally-least-recently-used artifacts (across both maps) until
  // the entry cap and byte budget hold. Values are shared_ptrs, so artifacts
  // still referenced by callers stay alive; only future reuse is lost. The
  // newest entry carries the highest tick, so it goes last — and only when
  // it alone exceeds the budget.
  void enforce_limits() {
    while (over_limits() && (!assignments.empty() || !dgraphs.empty())) {
      auto a = assignments.begin();
      for (auto it = assignments.begin(); it != assignments.end(); ++it) {
        if (it->second.last_used < a->second.last_used) a = it;
      }
      auto d = dgraphs.begin();
      for (auto it = dgraphs.begin(); it != dgraphs.end(); ++it) {
        if (it->second.last_used < d->second.last_used) d = it;
      }
      const bool pick_assignment =
          !assignments.empty() &&
          (dgraphs.empty() || a->second.last_used < d->second.last_used);
      if (pick_assignment) {
        stats.resident_bytes -= a->second.bytes;
        stats.evicted_bytes += a->second.bytes;
        ++stats.assignment_evictions;
        assignments.erase(a);
      } else {
        stats.resident_bytes -= d->second.bytes;
        stats.evicted_bytes += d->second.bytes;
        ++stats.dgraph_evictions;
        dgraphs.erase(d);
      }
    }
  }
};

std::shared_ptr<ArtifactCache::Impl> ArtifactCache::make_impl() {
  return std::make_shared<Impl>();
}

std::shared_ptr<const Assignment> ArtifactCache::assignment(
    const Graph& g, machine_t machines, const PartitionOptions& opts) {
  const AssignmentKey key = make_assignment_key(g, machines, opts);
  // The lock is held across the compute on a miss: concurrent requests for
  // the same key must not duplicate a multi-second partition, and the
  // setup path inside is already parallel (opts.threads).
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (auto it = impl_->assignments.find(key);
      it != impl_->assignments.end()) {
    ++impl_->stats.assignment_hits;
    impl_->touch(it->second);
    return it->second.value;
  }
  ++impl_->stats.assignment_misses;
  const auto t0 = std::chrono::steady_clock::now();
  auto value =
      std::make_shared<const Assignment>(assign_edges(g, machines, opts));
  impl_->stats.partition_seconds += seconds_since(t0);
  impl_->insert(impl_->assignments, key, value);
  return value;
}

std::shared_ptr<const DistributedGraph> ArtifactCache::dgraph(
    const Graph& g, machine_t machines, const PartitionOptions& opts,
    const EdgeSplitterOptions& split, std::size_t build_threads) {
  const bool active = split_active(split);
  const DgraphKey key = {make_assignment_key(g, machines, opts),
                         active,
                         active ? double_bits(split.t_extra) : 0,
                         active ? double_bits(split.teps) : 0,
                         active ? double_bits(split.high_degree_percentile)
                                : 0,
                         active ? split.low_degree_bound : 0};
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (auto it = impl_->dgraphs.find(key); it != impl_->dgraphs.end()) {
      ++impl_->stats.dgraph_hits;
      impl_->touch(it->second);
      return it->second.value;
    }
  }
  // Resolve the assignment through the cache (its own hit/miss accounting),
  // then build outside any lock we might contend with for assignments.
  auto asg = assignment(g, machines, opts);

  std::lock_guard<std::mutex> lock(impl_->mu);
  if (auto it = impl_->dgraphs.find(key); it != impl_->dgraphs.end()) {
    ++impl_->stats.dgraph_hits;
    impl_->touch(it->second);
    return it->second.value;
  }
  ++impl_->stats.dgraph_misses;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> split_edges;
  if (active) split_edges = select_split_edges(g, machines, split);
  auto value = std::make_shared<const DistributedGraph>(
      DistributedGraph::build(g, machines, *asg, split_edges, build_threads));
  impl_->stats.build_seconds += seconds_since(t0);
  impl_->insert(impl_->dgraphs, key, value);
  return value;
}

ArtifactStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->assignments.clear();
  impl_->dgraphs.clear();
  impl_->stats = {};
}

void ArtifactCache::set_byte_budget(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->byte_budget = bytes;
  impl_->enforce_limits();
}

std::uint64_t ArtifactCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->byte_budget;
}

ArtifactCache& ArtifactCache::global() {
  static ArtifactCache cache;
  return cache;
}

}  // namespace lazygraph::partition
