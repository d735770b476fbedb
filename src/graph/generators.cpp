#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>

#include "util/flat_set.hpp"
#include "util/rng.hpp"

namespace lazygraph::gen {

namespace {

float draw_weight(Rng& rng, const WeightSpec& w) {
  if (w.max <= w.min) return w.min;
  return w.min + static_cast<float>(rng.uniform()) * (w.max - w.min);
}

}  // namespace

Graph erdos_renyi(vid_t n, std::uint64_t m, std::uint64_t seed, WeightSpec w) {
  require(n >= 2, "erdos_renyi: need at least 2 vertices");
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    const auto u = static_cast<vid_t>(rng.below(n));
    const auto v = static_cast<vid_t>(rng.below(n));
    if (u == v) continue;
    edges.push_back({u, v, draw_weight(rng, w)});
  }
  return Graph(n, std::move(edges)).simplified();
}

Graph rmat(vid_t scale, std::uint64_t edges_per_vertex, double a, double b,
           double c, std::uint64_t seed, WeightSpec w) {
  require(scale >= 1 && scale < 31, "rmat: scale out of range");
  require(a + b + c < 1.0 + 1e-9, "rmat: a+b+c must be < 1");
  const vid_t n = vid_t{1} << scale;
  const std::uint64_t m = static_cast<std::uint64_t>(n) * edges_per_vertex;
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    vid_t u = 0, v = 0;
    for (vid_t bit = n >> 1; bit > 0; bit >>= 1) {
      const double r = rng.uniform();
      if (r < a) {
        // top-left quadrant: no bits set
      } else if (r < a + b) {
        v |= bit;
      } else if (r < a + b + c) {
        u |= bit;
      } else {
        u |= bit;
        v |= bit;
      }
    }
    if (u == v) continue;
    edges.push_back({u, v, draw_weight(rng, w)});
  }
  return Graph(n, std::move(edges)).simplified();
}

Graph chung_lu(vid_t n, std::uint64_t m, double alpha, std::uint64_t seed,
               WeightSpec w, LocalitySpec locality) {
  require(n >= 2, "chung_lu: need at least 2 vertices");
  require(alpha > 1.0, "chung_lu: alpha must exceed 1");
  Rng rng(seed);
  // Expected-degree weights w_i = (i+1)^(-1/(alpha-1)), sampled via the
  // inverse-CDF trick on the cumulative weight array.
  std::vector<double> cum(n);
  double total = 0.0;
  const double exponent = -1.0 / (alpha - 1.0);
  for (vid_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), exponent);
    cum[i] = total;
  }
  auto sample = [&]() -> vid_t {
    const double r = rng.uniform() * total;
    const auto it = std::lower_bound(cum.begin(), cum.end(), r);
    return static_cast<vid_t>(it - cum.begin());
  };
  FlatU64Set seen(m);
  std::vector<Edge> edges;
  edges.reserve(m);
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts = m * 20;
  while (edges.size() < m && attempts < max_attempts) {
    ++attempts;
    const vid_t u = sample();
    vid_t v;
    if (locality.p_local > 0.0 && rng.uniform() < locality.p_local) {
      // Local destination: uniform within the source's block ("host").
      const vid_t lo = (u / locality.block) * locality.block;
      const vid_t hi = std::min<vid_t>(lo + locality.block - 1, n - 1);
      v = lo + static_cast<vid_t>(rng.below(hi - lo + 1));
    } else {
      v = sample();
    }
    if (u == v) continue;
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    if (!seen.insert(key)) continue;
    edges.push_back({u, v, draw_weight(rng, w)});
  }
  return Graph(n, std::move(edges));
}

Graph road_lattice(vid_t rows, vid_t cols, double extra_frac,
                   std::uint64_t seed, WeightSpec w) {
  require(rows >= 2 && cols >= 2, "road_lattice: grid too small");
  const vid_t n = rows * cols;
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(
      2.0 * (1.0 + extra_frac) * static_cast<double>(n)) + 16);
  auto id = [cols](vid_t r, vid_t c) { return r * cols + c; };
  auto add_both = [&](vid_t u, vid_t v) {
    const float wt = draw_weight(rng, w);
    edges.push_back({u, v, wt});
    edges.push_back({v, u, wt});
  };

  // Serpentine Hamiltonian backbone: row r traversed left-to-right when even,
  // right-to-left when odd, with a vertical connector between rows.
  for (vid_t r = 0; r < rows; ++r) {
    for (vid_t c = 0; c + 1 < cols; ++c) add_both(id(r, c), id(r, c + 1));
    if (r + 1 < rows) {
      const vid_t c = (r % 2 == 0) ? cols - 1 : 0;
      add_both(id(r, c), id(r + 1, c));
    }
  }

  // Extra local roads: random lattice-neighbour edges (loops in the network).
  const auto extras =
      static_cast<std::uint64_t>(extra_frac * static_cast<double>(n));
  for (std::uint64_t i = 0; i < extras; ++i) {
    const auto r = static_cast<vid_t>(rng.below(rows));
    const auto c = static_cast<vid_t>(rng.below(cols));
    if (rng.below(2) == 0) {
      if (c + 1 < cols) add_both(id(r, c), id(r, c + 1));
    } else {
      if (r + 1 < rows) add_both(id(r, c), id(r + 1, c));
    }
  }
  return Graph(n, std::move(edges)).simplified();
}

Graph path(vid_t n, WeightSpec w) {
  require(n >= 1, "path: empty");
  Rng rng(42);
  std::vector<Edge> edges;
  for (vid_t i = 0; i + 1 < n; ++i)
    edges.push_back({i, i + 1, draw_weight(rng, w)});
  return Graph(n, std::move(edges));
}

Graph cycle(vid_t n, WeightSpec w) {
  require(n >= 2, "cycle: too small");
  Rng rng(42);
  std::vector<Edge> edges;
  for (vid_t i = 0; i < n; ++i)
    edges.push_back({i, (i + 1) % n, draw_weight(rng, w)});
  return Graph(n, std::move(edges));
}

Graph star(vid_t leaves, bool bidirectional) {
  require(leaves >= 1, "star: need leaves");
  std::vector<Edge> edges;
  for (vid_t i = 1; i <= leaves; ++i) {
    edges.push_back({0, i, 1.0f});
    if (bidirectional) edges.push_back({i, 0, 1.0f});
  }
  return Graph(leaves + 1, std::move(edges));
}

Graph complete(vid_t n) {
  require(n >= 2 && n <= 4096, "complete: size out of range");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1));
  for (vid_t u = 0; u < n; ++u)
    for (vid_t v = 0; v < n; ++v)
      if (u != v) edges.push_back({u, v, 1.0f});
  return Graph(n, std::move(edges));
}

Graph grid(vid_t rows, vid_t cols) {
  require(rows >= 2 && cols >= 2, "grid: too small");
  std::vector<Edge> edges;
  auto id = [cols](vid_t r, vid_t c) { return r * cols + c; };
  for (vid_t r = 0; r < rows; ++r) {
    for (vid_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        edges.push_back({id(r, c), id(r, c + 1), 1.0f});
        edges.push_back({id(r, c + 1), id(r, c), 1.0f});
      }
      if (r + 1 < rows) {
        edges.push_back({id(r, c), id(r + 1, c), 1.0f});
        edges.push_back({id(r + 1, c), id(r, c), 1.0f});
      }
    }
  }
  return Graph(rows * cols, std::move(edges));
}

}  // namespace lazygraph::gen
