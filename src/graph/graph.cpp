#include "graph/graph.hpp"

#include <algorithm>
#include <cstring>

#include "util/flat_set.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace lazygraph {

namespace {

// Per-range degree histograms folded into `deg`. Integer addition commutes,
// so the result is bit-identical for any (threads, range) decomposition.
enum class DegreeMode { kOut, kIn, kTotal };

std::vector<vid_t> count_degrees(vid_t num_vertices,
                                 const std::vector<Edge>& edges,
                                 DegreeMode mode, std::size_t threads) {
  std::vector<vid_t> deg(num_vertices, 0);
  threads = resolve_threads(threads);
  if (threads <= 1 || edges.size() < 2 * threads) {
    for (const Edge& e : edges) {
      if (mode != DegreeMode::kIn) ++deg[e.src];
      if (mode != DegreeMode::kOut) ++deg[e.dst];
    }
    return deg;
  }
  std::vector<std::vector<vid_t>> partial(threads);
  parallel_ranges(edges.size(), threads,
                  [&](std::size_t r, std::size_t begin, std::size_t end) {
                    auto& h = partial[r];
                    h.assign(num_vertices, 0);
                    for (std::size_t i = begin; i < end; ++i) {
                      const Edge& e = edges[i];
                      if (mode != DegreeMode::kIn) ++h[e.src];
                      if (mode != DegreeMode::kOut) ++h[e.dst];
                    }
                  });
  parallel_ranges(num_vertices, threads,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (const auto& h : partial) {
                      if (h.empty()) continue;
                      for (std::size_t v = begin; v < end; ++v) {
                        deg[v] += h[v];
                      }
                    }
                  });
  return deg;
}

}  // namespace

Graph::Graph(vid_t num_vertices, std::vector<Edge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
  // One require() after the scan: it builds its message string on every
  // call, which per edge would be a heap allocation each.
  bool in_range = true;
  for (const Edge& e : edges_) {
    in_range &= e.src < num_vertices_ && e.dst < num_vertices_;
  }
  require(in_range, "Graph: edge endpoint out of range");
}

double Graph::edge_vertex_ratio() const {
  if (num_vertices_ == 0) return 0.0;
  return static_cast<double>(edges_.size()) /
         static_cast<double>(num_vertices_);
}

const std::vector<vid_t>& Graph::out_degrees(std::size_t threads) const {
  if (!have_out_deg_) {
    out_deg_ = count_degrees(num_vertices_, edges_, DegreeMode::kOut, threads);
    have_out_deg_ = true;
  }
  return out_deg_;
}

const std::vector<vid_t>& Graph::in_degrees(std::size_t threads) const {
  if (!have_in_deg_) {
    in_deg_ = count_degrees(num_vertices_, edges_, DegreeMode::kIn, threads);
    have_in_deg_ = true;
  }
  return in_deg_;
}

const std::vector<vid_t>& Graph::total_degrees(std::size_t threads) const {
  if (!have_tot_deg_) {
    tot_deg_ =
        count_degrees(num_vertices_, edges_, DegreeMode::kTotal, threads);
    have_tot_deg_ = true;
  }
  return tot_deg_;
}

std::uint64_t Graph::content_hash() const {
  if (!have_hash_) {
    // Serial chain hash: order-dependent on purpose (edge order is part of
    // the identity — partitioners are sensitive to it) and independent of
    // any thread-count knob so cache keys are stable across configurations.
    std::uint64_t h = mix64(0x6c617a79u ^ num_vertices_);
    h = mix64(h ^ edges_.size());
    for (const Edge& e : edges_) {
      std::uint32_t w_bits;
      std::memcpy(&w_bits, &e.weight, sizeof(w_bits));
      h = mix64(h ^ (static_cast<std::uint64_t>(e.src) << 32 | e.dst));
      h = mix64(h ^ w_bits);
    }
    content_hash_ = h;
    have_hash_ = true;
  }
  return content_hash_;
}

Csr build_csr(vid_t num_vertices, const std::vector<Edge>& edges,
              bool by_source) {
  Csr csr;
  csr.offsets.assign(num_vertices + 1, 0);
  for (const Edge& e : edges) ++csr.offsets[(by_source ? e.src : e.dst) + 1];
  for (vid_t v = 0; v < num_vertices; ++v)
    csr.offsets[v + 1] += csr.offsets[v];
  csr.targets.resize(edges.size());
  csr.weights.resize(edges.size());
  std::vector<std::uint64_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  for (const Edge& e : edges) {
    const vid_t key = by_source ? e.src : e.dst;
    const std::uint64_t pos = cursor[key]++;
    csr.targets[pos] = by_source ? e.dst : e.src;
    csr.weights[pos] = e.weight;
  }
  return csr;
}

const Csr& Graph::out_csr() const {
  if (!have_out_) {
    out_csr_ = build_csr(num_vertices_, edges_, /*by_source=*/true);
    have_out_ = true;
  }
  return out_csr_;
}

const Csr& Graph::in_csr() const {
  if (!have_in_) {
    in_csr_ = build_csr(num_vertices_, edges_, /*by_source=*/false);
    have_in_ = true;
  }
  return in_csr_;
}

Graph Graph::transposed() const {
  std::vector<Edge> rev;
  rev.reserve(edges_.size());
  for (const Edge& e : edges_) rev.push_back({e.dst, e.src, e.weight});
  return Graph(num_vertices_, std::move(rev));
}

namespace {
// Packs an ordered (src,dst) pair into a 64-bit key for dedup sets.
std::uint64_t pair_key(vid_t a, vid_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}
}  // namespace

Graph Graph::symmetrized() const {
  FlatU64Set seen(edges_.size() * 2);
  std::vector<Edge> out;
  out.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    if (e.src == e.dst) continue;
    if (seen.insert(pair_key(e.src, e.dst)))
      out.push_back({e.src, e.dst, e.weight});
    if (seen.insert(pair_key(e.dst, e.src)))
      out.push_back({e.dst, e.src, e.weight});
  }
  return Graph(num_vertices_, std::move(out));
}

Graph Graph::simplified() const {
  FlatU64Set seen(edges_.size());
  std::vector<Edge> out;
  out.reserve(edges_.size());
  for (const Edge& e : edges_) {
    if (e.src == e.dst) continue;
    if (seen.insert(pair_key(e.src, e.dst))) out.push_back(e);
  }
  return Graph(num_vertices_, std::move(out));
}

}  // namespace lazygraph
