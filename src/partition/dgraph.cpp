#include "partition/dgraph.hpp"

#include <algorithm>
#include <bit>

#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace lazygraph::partition {

std::uint32_t Part::num_replicas(lvid_t v) const {
  return static_cast<std::uint32_t>(std::popcount(replica_mask[v]));
}

std::uint64_t DistributedGraph::total_local_edges() const {
  std::uint64_t total = 0;
  for (const Part& p : parts_) total += p.num_local_edges();
  return total;
}

DistributedGraph DistributedGraph::build(
    const Graph& g, machine_t machines, const Assignment& assignment,
    std::span<const std::uint64_t> split_edges, std::size_t threads) {
  require(machines >= 1 && machines <= 64,
          "DistributedGraph: machines must be in [1, 64]");
  require(assignment.edge_machine.size() == g.num_edges(),
          "DistributedGraph: assignment size mismatch");
  const std::size_t nthreads = resolve_threads(threads);

  DistributedGraph dg;
  dg.num_global_ = g.num_vertices();
  const vid_t n = g.num_vertices();

  std::vector<std::uint8_t> is_split(g.num_edges(), 0);
  for (const std::uint64_t i : split_edges) {
    require(i < g.num_edges(), "DistributedGraph: split edge out of range");
    is_split[i] = 1;
  }

  // Step 1: base replica masks from the vertex-cut assignment (all edges at
  // their home machine, including edges that will be split). Parallel form:
  // per-range masks folded with bitwise OR — commutative, so the fold is
  // bit-identical for any (thread, range) decomposition.
  std::vector<std::uint64_t> mask(n, 0);
  if (nthreads <= 1 || g.num_edges() < 2 * nthreads) {
    for (std::size_t i = 0; i < g.edges().size(); ++i) {
      const Edge& e = g.edges()[i];
      const std::uint64_t bit = std::uint64_t{1} << assignment.edge_machine[i];
      mask[e.src] |= bit;
      mask[e.dst] |= bit;
    }
  } else {
    std::vector<std::vector<std::uint64_t>> partial(nthreads);
    parallel_ranges(g.num_edges(), nthreads,
                    [&](std::size_t r, std::size_t begin, std::size_t end) {
                      auto& pm = partial[r];
                      pm.assign(n, 0);
                      for (std::size_t i = begin; i < end; ++i) {
                        const Edge& e = g.edges()[i];
                        const std::uint64_t bit =
                            std::uint64_t{1} << assignment.edge_machine[i];
                        pm[e.src] |= bit;
                        pm[e.dst] |= bit;
                      }
                    });
    parallel_ranges(n, nthreads,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (const auto& pm : partial) {
                        if (pm.empty()) continue;
                        for (std::size_t v = begin; v < end; ++v) {
                          mask[v] |= pm[v];
                        }
                      }
                    });
  }
  // Step 2: parallel-edges dispatch — a split edge v->u must appear on every
  // machine holding a replica of u, and v needs a replica wherever the edge
  // lands. Adding replicas of v can in turn widen the requirement of split
  // edges *into* v, so iterate to a fixpoint ("dispatches each
  // parallel-edges v->u until all parallel-edges don't violate this rule").
  // Serial: the split set is small by construction (the splitter's sizing
  // equations bound it) and the fixpoint is inherently iterative.
  bool changed = !split_edges.empty();
  while (changed) {
    changed = false;
    for (const std::uint64_t i : split_edges) {
      const Edge& e = g.edges()[i];
      const std::uint64_t need = mask[e.dst];
      if ((mask[e.src] & need) != need) {
        mask[e.src] |= need;
        changed = true;
      }
    }
  }

  // Steps 3 + 4, fused per vertex (both are pure functions of one mask
  // slot): isolated vertices get a hash-placed replica, then the master is
  // a deterministic hash-rotated pick among replicas (PowerGraph picks
  // arbitrarily; load spreads by hashing).
  dg.master_of_.resize(n);
  parallel_ranges(n, nthreads, [&](std::size_t, std::size_t lo,
                                   std::size_t hi) {
    for (std::size_t vi = lo; vi < hi; ++vi) {
      const vid_t v = static_cast<vid_t>(vi);
      if (mask[v] == 0) mask[v] = std::uint64_t{1} << (mix64(v) % machines);
      const auto count = static_cast<std::uint32_t>(std::popcount(mask[v]));
      std::uint32_t pick = static_cast<std::uint32_t>(mix64(v + 1) % count);
      std::uint64_t m = mask[v];
      machine_t chosen = 0;
      for (;;) {
        chosen = static_cast<machine_t>(std::countr_zero(m));
        if (pick == 0) break;
        m &= m - 1;
        --pick;
      }
      dg.master_of_[v] = chosen;
    }
  });

  // Step 5: local vertex tables (lvids ordered by global id). One pass over
  // the masks pre-counts each machine's replicas so every per-part vector
  // reserves its final size up front, and the flat (machine, lvid) replica
  // list plus master lvids are recorded while lvids are assigned — the only
  // g2l hashing left is building the map itself (kept for external lookups).
  // lvid assignment is a sequential scan by construction (lvids are dense in
  // ascending gid order); it is O(V * lambda) and stays serial.
  dg.parts_.resize(machines);
  std::vector<std::size_t> replicas_per(machines, 0);
  std::vector<std::uint64_t> roff(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t v = 0; v < n; ++v) {
    std::uint64_t m = mask[v];
    roff[v + 1] = roff[v] + static_cast<std::uint64_t>(std::popcount(m));
    while (m) {
      ++replicas_per[std::countr_zero(m)];
      m &= m - 1;
    }
  }
  for (machine_t m = 0; m < machines; ++m) {
    Part& part = dg.parts_[m];
    const std::size_t cnt = replicas_per[m];
    part.gids.reserve(cnt);
    part.g2l.reserve(cnt);
    part.replica_mask.reserve(cnt);
    part.master.reserve(cnt);
    part.global_out_degree.reserve(cnt);
    part.global_total_degree.reserve(cnt);
  }
  const std::vector<vid_t>& out_deg = g.out_degrees(threads);
  const std::vector<vid_t>& tot_deg = g.total_degrees(threads);
  dg.master_lvid_of_.resize(n);
  // rlist[roff[v], roff[v+1]) = v's replicas as (machine, lvid there) pairs,
  // machine-ascending (countr_zero walks bits low to high).
  std::vector<std::pair<machine_t, lvid_t>> rlist(roff[n]);
  for (vid_t v = 0; v < n; ++v) {
    std::uint64_t m = mask[v];
    std::uint64_t cursor = roff[v];
    while (m) {
      const auto mach = static_cast<machine_t>(std::countr_zero(m));
      m &= m - 1;
      Part& part = dg.parts_[mach];
      const auto lvid = static_cast<lvid_t>(part.gids.size());
      part.gids.push_back(v);
      part.g2l.emplace(v, lvid);
      part.replica_mask.push_back(mask[v]);
      part.master.push_back(dg.master_of_[v]);
      part.global_out_degree.push_back(out_deg[v]);
      part.global_total_degree.push_back(tot_deg[v]);
      if (mach == dg.master_of_[v]) dg.master_lvid_of_[v] = lvid;
      rlist[cursor++] = {mach, lvid};
    }
  }

  // Steps 5b + 6, parallel across machines (each part is independent):
  // master lvids and the replica routing tables, sliced out of the flat
  // replica list (machine-ascending order preserved; self excluded).
  parallel_ranges(machines, nthreads, [&](std::size_t, std::size_t lo,
                                          std::size_t hi) {
    for (std::size_t mi = lo; mi < hi; ++mi) {
      Part& part = dg.parts_[mi];
      part.master_lvid.resize(part.gids.size());
      part.remote_replicas.resize(part.gids.size());
      for (lvid_t i = 0; i < part.num_local(); ++i) {
        const vid_t v = part.gids[i];
        part.master_lvid[i] = dg.master_lvid_of_[v];
        const std::uint64_t cnt = roff[v + 1] - roff[v];
        if (cnt <= 1) continue;
        auto& out = part.remote_replicas[i];
        out.reserve(cnt - 1);
        for (std::uint64_t j = roff[v]; j < roff[v + 1]; ++j) {
          if (rlist[j].first != static_cast<machine_t>(mi)) {
            out.push_back(rlist[j]);
          }
        }
      }
    }
  });

  // Step 7: local edges. Non-split edges stay at their home machine in
  // one-edge mode; split edges get a parallel copy on every machine holding
  // a replica of the destination (final masks, per the fixpoint above).
  // Bucketing runs over edge ranges with range-private per-machine buckets;
  // each machine later concatenates its buckets in range order, which IS
  // the serial (global edge order) sequence — so the stable sort below sees
  // the identical input for any thread count.
  struct TmpEdge {
    vid_t src, dst;
    float w;
    bool parallel;
  };
  const std::size_t bucket_ranges =
      (nthreads <= 1 || g.num_edges() < 2 * nthreads) ? 1 : nthreads;
  std::vector<std::vector<std::vector<TmpEdge>>> tmp(
      bucket_ranges, std::vector<std::vector<TmpEdge>>(machines));
  std::vector<std::uint64_t> copies_per_range(bucket_ranges, 0);
  parallel_ranges(
      g.num_edges(), bucket_ranges,
      [&](std::size_t r, std::size_t begin, std::size_t end) {
        auto& buckets = tmp[r];
        std::uint64_t copies = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Edge& e = g.edges()[i];
          if (!is_split[i]) {
            buckets[assignment.edge_machine[i]].push_back(
                {e.src, e.dst, e.weight, false});
          } else {
            std::uint64_t bits = mask[e.dst];
            while (bits) {
              const auto m = static_cast<machine_t>(std::countr_zero(bits));
              bits &= bits - 1;
              buckets[m].push_back({e.src, e.dst, e.weight, true});
              ++copies;
            }
            // The home copy is subsumed by the loop (the destination always
            // has a replica at the home machine), so `copies` over-counts
            // by one per split edge; correct for it.
            --copies;
          }
        }
        copies_per_range[r] = copies;
      });
  for (const std::uint64_t c : copies_per_range) dg.parallel_copies_ += c;

  // Per-machine CSR construction, parallel across machine ranges. Each
  // range owns one dense gid -> lvid scratch: machine m only resolves gids
  // that have a local replica on m, and the refill below rewrites exactly
  // those slots, so no reset between a range's machines is needed.
  parallel_ranges(machines, nthreads, [&](std::size_t, std::size_t lo,
                                          std::size_t hi) {
    std::vector<lvid_t> lookup(n, kInvalidLvid);
    for (std::size_t mi = lo; mi < hi; ++mi) {
      const auto m = static_cast<machine_t>(mi);
      Part& part = dg.parts_[m];
      std::size_t edge_count = 0;
      for (const auto& buckets : tmp) edge_count += buckets[m].size();
      std::vector<TmpEdge> edges;
      edges.reserve(edge_count);
      for (const auto& buckets : tmp) {
        edges.insert(edges.end(), buckets[m].begin(), buckets[m].end());
      }
      std::stable_sort(edges.begin(), edges.end(),
                       [](const TmpEdge& a, const TmpEdge& b) {
                         return a.src < b.src;
                       });
      part.offsets.assign(part.num_local() + 1, 0);
      part.targets.reserve(edges.size());
      part.weights.reserve(edges.size());
      part.parallel_mode.reserve(edges.size());
      part.local_in_degree.assign(part.num_local(), 0);
      for (lvid_t i = 0; i < part.num_local(); ++i) lookup[part.gids[i]] = i;
      for (const TmpEdge& e : edges) {
        const lvid_t ls = lookup[e.src];
        const lvid_t ld = lookup[e.dst];
        ++part.offsets[ls + 1];
        ++part.local_in_degree[ld];
        part.targets.push_back(ld);
        part.weights.push_back(e.w);
        part.parallel_mode.push_back(e.parallel ? 1 : 0);
      }
      // offsets currently counts per-source in gid order of *sorted edges*;
      // but targets were appended in sorted-edge order keyed by global src
      // id, while offsets index by lvid. lvids are assigned in increasing
      // gid order, so sorting by global src id equals sorting by lvid.
      for (lvid_t v = 0; v < part.num_local(); ++v) {
        part.offsets[v + 1] += part.offsets[v];
      }
    }
  });

  // Step 8: replication factor over final masks.
  std::uint64_t replicas = 0;
  for (vid_t v = 0; v < n; ++v)
    replicas += static_cast<std::uint64_t>(std::popcount(mask[v]));
  dg.replication_factor_ =
      n == 0 ? 0.0 : static_cast<double>(replicas) / static_cast<double>(n);

  return dg;
}

}  // namespace lazygraph::partition
