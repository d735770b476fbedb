// LazyBlockAsync — the paper's main contribution (Algorithm 1).
//
// Replicas of a vertex are independent vertices. Each outer iteration is:
//
//   Stage 1 (local computation, only when lazy mode is on): every machine
//     repeatedly applies pending messages and scatters along local edges.
//     Messages arriving over one-edge-mode edges accumulate into the
//     target's deltaMsg; parallel-edge deliveries do not (they are already
//     replicated everywhere). The stage runs until local quiescence or the
//     adaptive work budget ("3T") is exhausted. No communication happens.
//
//   Stage 2 (data coherency): replicas of each vertex exchange their
//     deltaMsgs — all-to-all or mirrors-to-master, picked per exchange by
//     the fitted cost curves — and every replica folds the *others'* deltas
//     into its message slot (using Inverse for non-idempotent Sums in the
//     m2m pattern). One global barrier. Then the coherency-point
//     apply+scatter sweep runs, after which all replicas of a vertex that
//     consumed the same message multiset hold the same global view.
//     The exchange is owner-computes, in three machine-parallel phases:
//     every replica machine packs its flagged deltas by value towards their
//     masters' machines, every master machine folds what it received and
//     fills one outbox per replica machine, and every replica machine
//     unpacks its outboxes into its own message slots (exchange_deltas).
//     No phase writes another machine's state.
//
// The adaptive interval model (Section 4.2.1) decides when lazy mode turns
// on; per Algorithm 1 line 16 it is sticky once enabled.
//
// All sweeps are frontier-driven and serial within a machine; machines run
// concurrently, so the run is bit-deterministic across cluster thread
// counts.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/comm_mode.hpp"
#include "engine/interval_model.hpp"
#include "engine/local_sweep.hpp"
#include "engine/run_config.hpp"
#include "engine/state.hpp"
#include "recovery/recovery.hpp"
#include "sim/cluster.hpp"

namespace lazygraph::engine {

/// Reads max_supersteps, interval and comm_policy from the RunConfig. The
/// interval model's E/V ratio is the graph's user view
/// (DistributedGraph::user_ev_ratio).
template <VertexProgram P>
class LazyBlockAsyncEngine {
 public:
  LazyBlockAsyncEngine(const partition::DistributedGraph& dg, P prog,
                       sim::Cluster& cluster, const RunConfig& cfg,
                       const InitInjection* init,
                       CoherencyInspector<P> inspect)
      : dg_(dg),
        prog_(std::move(prog)),
        cluster_(cluster),
        cfg_(cfg),
        init_(init),
        inspector_(std::move(inspect)),
        interval_(cfg.interval, dg.user_ev_ratio()) {
    require(cluster.num_machines() == dg.num_machines(),
            "LazyBlockAsyncEngine: cluster/graph machine count mismatch");
  }

  RunResult<P> run() {
    const machine_t p = dg_.num_machines();
    states_ = make_states(dg_, prog_, cluster_, init_);
    cluster_.metrics().sweep_scanned +=
        init_lazy_messages(prog_, dg_, states_, cluster_, init_);
    reserve_exchange_scratch();
    recovery::Recoverer<P> recoverer(cluster_, dg_);

    RunResult<P> result;
    std::vector<std::uint64_t> work(p), subiters(p);
    // Per-machine sweep counters for one phase of the superstep.
    std::vector<SweepCounters> sweeps(p);
    auto add_sweep_counters = [&] {
      for (const SweepCounters& c : sweeps) {
        cluster_.metrics().applies += c.applies;
        cluster_.metrics().sweep_scanned += c.scanned;
        cluster_.metrics().sweep_edges_pushed += c.pushed;
      }
    };
    bool do_local = false;  // the paper's first iteration skips Stage 1

    for (std::uint64_t step = 0; step < cfg_.max_supersteps; ++step) {
      ++cluster_.metrics().supersteps;
      ++result.supersteps;
      const double iter_start_seconds = cluster_.metrics().sim_seconds();

      // ---- Stage 1: local computation. ----
      if (do_local) {
        std::fill(work.begin(), work.end(), 0);
        std::fill(subiters.begin(), subiters.end(), 0);
        std::fill(sweeps.begin(), sweeps.end(), SweepCounters{});
        const double first_iter_seconds = first_iter_seconds_;
        cluster_.parallel_machines([&](machine_t m) {
          const partition::Part& part = dg_.part(m);
          PartState<P>& s = states_[m];
          std::uint64_t budget = 0;
          bool first = true;
          for (;;) {
            const SweepCounters c =
                local_sweep(prog_, part, s, SweepMode::kGaussSeidel);
            sweeps[m] += c;
            if (c.work == 0) break;
            work[m] += c.work;
            ++subiters[m];
            if (first) {
              budget = interval_.local_stage_budget(
                  c.work, first_iter_seconds, cluster_.net().config().teps);
              first = false;
            }
            if (work[m] >= budget) break;  // the "3T" bound
          }
        });
        cluster_.charge_compute(sim::SpanKind::kLocalStage, work);
        for (machine_t m = 0; m < p; ++m) {
          cluster_.metrics().local_subiterations += subiters[m];
        }
        add_sweep_counters();
      }

      // ---- Stage 2: data coherency. ----
      const auto [comm, active] = exchange_deltas();
      cluster_.charge_barrier();  // the single global sync of the iteration

      if (active == 0) {
        record_superstep_snapshot(result.supersteps, active, do_local, comm);
        // The exchange delivered nothing and no messages are pending: the
        // previous coherency point's view is still the global one.
        if (inspector_) inspector_(result.supersteps, states_);
        recoverer.on_coherency_point(result.supersteps, states_);
        result.converged = true;
        break;
      }
      // Algorithm 1 line 16: lazy mode is sticky once turned on.
      const bool decision = interval_.turn_on_lazy(active);
      do_local = do_local || decision;

      // ---- Coherency point: apply + scatter the merged view. ----
      // Batch (snapshot) semantics per Algorithm 1: every vertex applies its
      // complete merged accumulator exactly once.
      cluster_.parallel_machines([&](machine_t m) {
        sweeps[m] = local_sweep(prog_, dg_.part(m), states_[m],
                                SweepMode::kSnapshot);
        work[m] = sweeps[m].work;
      });
      cluster_.charge_compute(sim::SpanKind::kApplySweep, work);
      add_sweep_counters();
      // The interval/comm decisions above are already fixed, and the step-0
      // T calibration below has not run yet.
      record_superstep_snapshot(result.supersteps, active, do_local, comm);
      if (inspector_) inspector_(result.supersteps, states_);

      // "We collect the execution time T of the first iteration ... online":
      // the first full coherency round calibrates the 3T local-stage budget.
      if (step == 0) {
        first_iter_seconds_ =
            cluster_.metrics().sim_seconds() - iter_start_seconds;
      }
      // Coherency point for fault injection. Deliberately AFTER the T
      // calibration above: guard/recovery charges must not inflate the
      // measured T, or the 3T budget (and hence the whole trajectory) would
      // differ between a failure run and the failure-free baseline.
      recoverer.on_coherency_point(result.supersteps, states_);
    }

    finalize_result(result, cluster_, dg_, states_);
    return result;
  }

 private:
  /// Logs what the adaptive machinery decided this superstep: the interval
  /// model's verdict and trend, the measured T behind the 3T budget, and the
  /// comm-mode selection with its fitted-curve predictions.
  void record_superstep_snapshot(std::uint64_t superstep, std::uint64_t active,
                                 bool lazy_on, const CommDecision& comm) {
    sim::Tracer* t = cluster_.tracer();
    if (!t) return;
    sim::SuperstepSnapshot snap;
    snap.superstep = superstep;
    snap.active_vertices = active;
    snap.lazy_on = lazy_on;
    snap.trend = interval_.last_trend();
    snap.measured_t_seconds = first_iter_seconds_;
    snap.comm_mode = static_cast<int>(comm.mode);
    snap.prediction = comm.prediction;
    t->record_superstep(snap);
  }

  /// One replica's delta, shipped by value to its master's machine.
  struct DeltaRecord {
    lvid_t master_lvid;
    typename P::Msg delta;
  };

  /// One coordinator-to-replica delivery: the folded total of the vertex's
  /// deltas and whether the receiving replica contributed to it (then it
  /// takes its own delta back out with without_own).
  struct Delivery {
    lvid_t lvid;
    bool own;
    typename P::Msg total;
  };

  /// One machine's exchange buffers. A phase body writes only the
  /// MachineExchange of the machine it runs for; outboxes are indexed by
  /// the peer machine and read by that peer after the join. Cache-line
  /// aligned so the tallies of neighbouring machines never share a line.
  struct alignas(64) MachineExchange {
    // As replica machine: flagged deltas bound for each master machine.
    std::vector<std::vector<DeltaRecord>> bucket;
    // As coordinator, indexed by master lvid: the folded delta and the
    // contributor mask (bit r: machine r's replica held a delta). A zero
    // mask means "not yet folded this exchange"; the walk re-zeroes it.
    std::vector<typename P::Msg> acc;
    std::vector<std::uint64_t> contributors;
    // As coordinator: the masters folded this exchange, drained ascending.
    OwnedBits marks;
    // As coordinator: deliveries for each replica machine.
    std::vector<std::vector<Delivery>> outbox;
    // As coordinator: wire-codec streams towards each peer, for both
    // patterns (the decision comes after the walk). a2a relays every
    // contributor's record; m2m ships records up from the contributing
    // mirrors and down to every mirror.
    std::vector<wire::DeltaSizeCoder> a2a, up, down;
    // Pack: frontier slots scanned and this machine's replica shares of
    // the volume estimates. Coordinate: the per-master m2m shares and each
    // pattern's message count. Unpack: pending messages after delivery.
    std::uint64_t scanned = 0, est_a2a = 0, est_m2m = 0, msgs_a2a = 0,
                  msgs_m2m = 0, active = 0;
#ifndef NDEBUG
    // The estimate equations evaluated per master from its contributor
    // mask, to cross-check the folded shares.
    std::uint64_t check_a2a = 0, check_m2m = 0;
#endif
  };

  /// Sizes every exchange buffer to its structural worst case — every
  /// spanning replica flagged in one exchange — so steady-state coherency
  /// points never grow one (the alloc probe asserts supersteps allocate
  /// nothing after warmup). The spanning replicas on r whose master is on m
  /// bound both the bucket (r -> m) and the outbox (m -> r).
  void reserve_exchange_scratch() {
    const machine_t p = dg_.num_machines();
    exch_ = std::vector<MachineExchange>(p);
    for (machine_t m = 0; m < p; ++m) {
      MachineExchange& x = exch_[m];
      const lvid_t n = dg_.part(m).num_local();
      x.bucket.assign(p, {});
      x.acc.assign(n, {});
      x.contributors.assign(n, 0);
      x.marks = OwnedBits(n);
      x.outbox.assign(p, {});
      x.a2a.assign(p, {});
      x.up.assign(p, {});
      x.down.assign(p, {});
    }
    std::vector<std::size_t> per_master(p);
    for (machine_t r = 0; r < p; ++r) {
      const partition::Part& part = dg_.part(r);
      std::fill(per_master.begin(), per_master.end(), 0);
      for (lvid_t u = 0; u < part.num_local(); ++u) {
        if (part.num_replicas(u) > 1) ++per_master[part.master[u]];
      }
      for (machine_t m = 0; m < p; ++m) {
        exch_[r].bucket[m].reserve(per_master[m]);
        exch_[m].outbox[r].reserve(per_master[m]);
      }
    }
  }

  struct ExchangeOutcome {
    CommDecision comm;
    std::uint64_t active = 0;  // pending messages after delivery
  };

  // Exchange_deltaMsgs: estimate both patterns' volumes with the paper's
  // equations, pick a mode, deliver others' deltas into every replica's
  // message slot, clear deltas. Owner-computes in three machine-parallel
  // phases, so the run stays bit-identical across cluster thread counts:
  //
  //   Pack (replica machine r): walk r's delta frontier. Every flagged
  //     spanning replica ships (master lvid, delta) to bucket [r][master],
  //     drops its delta flag (the value stays: the unpack reads it) and
  //     adds its shares of the volume estimates: (rnum-1)·B to a2a, 1·B to
  //     m2m.
  //   Coordinate (master machine m): fold the buckets [*][m] in ascending
  //     r — machine order, the master's own delta at position m — into
  //     acc[v] and contributors[v]. Each first contribution marks v and
  //     adds the m2m per-master term (rnum-2)·B. Summed, the shares give
  //     the paper's estimates a2a = Σ_v nd_v·(rnum_v-1)·B and
  //     m2m = Σ_v (nd_v+rnum_v-2)·B, nd_v the number of v's replicas
  //     holding a delta. Then walk the marks ascending: note each master's
  //     records on both patterns' codec streams and message tallies, and
  //     queue {replica lvid, own, total} in outbox [m][r] for every replica
  //     except a sole contributor (whose "others' deltas" are empty).
  //   Decide (serial): pick the mode and charge its tallies.
  //   Unpack (replica machine r): for m ascending, deposit each delivery —
  //     without_own(total, own delta) for a contributor, total otherwise —
  //     and count r's pending messages.
  //
  // The estimates are deliberately on the UNCOMPRESSED per-record size: the
  // paper's fitted cost curves were calibrated against raw volumes, and
  // keeping the mode decision on raw bytes bounds how much the codec
  // perturbs the trajectory. Every flagged replica is on its delta frontier
  // exactly once (deposit_delta activates on the 0->1 flip and only this
  // exchange clears the flag), so each is counted once; the debug build
  // checks the shares against the equations evaluated per master. Every
  // per-replica write is a plain owner-only write, and each replica slot
  // receives its deposits in the order the earlier serial exchange made
  // them, so frontier order, data and counters are unchanged.
  ExchangeOutcome exchange_deltas() {
    const machine_t p = dg_.num_machines();
    constexpr std::uint64_t kDeltaBytes = wire_bytes<typename P::Msg>();
    constexpr std::size_t kRecord = sizeof(typename P::Msg);

    cluster_.parallel_machines([&](machine_t r) {
      const partition::Part& rp = dg_.part(r);
      PartState<P>& rs = states_[r];
      MachineExchange& x = exch_[r];
      for (auto& b : x.bucket) b.clear();
      std::uint64_t a2a_records = 0, flagged = 0;
      x.scanned =
          rs.delta_frontier.for_each_flagged(rs.has_delta, [&](lvid_t u) {
            const std::uint32_t rnum = rp.num_replicas(u);
            if (rnum <= 1) return;
            x.bucket[rp.master[u]].push_back({rp.master_lvid[u], rs.delta[u]});
            rs.has_delta.reset(u);
            a2a_records += rnum - 1;
            ++flagged;
          });
      rs.delta_frontier.clear();
      x.est_a2a = a2a_records * kDeltaBytes;
      x.est_m2m = flagged * kDeltaBytes;
    });

    cluster_.parallel_machines([&](machine_t m) {
      const partition::Part& part = dg_.part(m);
      MachineExchange& x = exch_[m];
      std::uint64_t m2m_records = 0;
      for (machine_t r = 0; r < p; ++r) {
        for (const auto& [v, d] : exch_[r].bucket[m]) {
          std::uint64_t& c = x.contributors[v];
          if (c == 0) {
            x.marks.set(v);
            m2m_records += part.num_replicas(v) - 2;
            x.acc[v] = d;
          } else {
            x.acc[v] = prog_.sum(x.acc[v], d);
          }
          c |= std::uint64_t{1} << r;
        }
      }
      x.est_m2m += m2m_records * kDeltaBytes;

      for (machine_t r = 0; r < p; ++r) {
        x.outbox[r].clear();
        x.a2a[r].reset();
        x.up[r].reset();
        x.down[r].reset();
      }
      std::uint64_t msgs_a2a = 0, msgs_m2m = 0;
#ifndef NDEBUG
      x.check_a2a = x.check_m2m = 0;
#endif
      x.marks.drain([&](std::size_t i) {
        const lvid_t v = static_cast<lvid_t>(i);
        const std::uint64_t c = std::exchange(x.contributors[v], 0);
        const std::uint32_t nd = std::popcount(c);
        const std::uint32_t rnum = part.num_replicas(v);
        const vid_t gid_v = part.gids[v];
        const bool master_contributed = (c >> m) & 1;

        // Codec records: the streams' gids ascend because v does. a2a
        // relays each contributor's record to all rnum-1 other replicas;
        // m2m ships one record up per contributing mirror and one down
        // per mirror. Frame headers are charged once per non-empty stream.
        for (std::uint64_t cb = c; cb != 0; cb &= cb - 1) {
          const machine_t rm = static_cast<machine_t>(std::countr_zero(cb));
          x.a2a[rm].add(gid_v, kRecord, rnum - 1);
          if (rm != m) x.up[rm].add(gid_v, kRecord);
        }
        msgs_a2a += std::uint64_t{nd} * (rnum - 1);
        msgs_m2m += nd - master_contributed + (rnum - 1);
#ifndef NDEBUG
        x.check_a2a += std::uint64_t{nd} * (rnum - 1) * kDeltaBytes;
        x.check_m2m += (std::uint64_t{nd} + rnum - 2) * kDeltaBytes;
#endif

        // Deliver "others' deltas": a sole contributor has none.
        const auto deliver = [&](machine_t r, lvid_t rv) {
          const bool own = (c >> r) & 1;
          if (own && nd == 1) return;
          x.outbox[r].push_back({rv, own, x.acc[v]});
        };
        deliver(m, v);
        for (const auto& [r, rl] : part.remote_replicas[v]) {
          x.down[r].add(gid_v, kRecord);
          deliver(r, rl);
        }
      });
      assert(!x.marks.any() && "exchange_deltas: coordinate left a mark");
      x.msgs_a2a = msgs_a2a;
      x.msgs_m2m = msgs_m2m;
    });

    ExchangeEstimate est;
    for (const MachineExchange& x : exch_) {
      cluster_.metrics().sweep_scanned += x.scanned;
      est.a2a_bytes += x.est_a2a;
      est.m2m_bytes += x.est_m2m;
    }
#ifndef NDEBUG
    ExchangeEstimate check;
    for (const MachineExchange& x : exch_) {
      check.a2a_bytes += x.check_a2a;
      check.m2m_bytes += x.check_m2m;
    }
    assert(check.a2a_bytes == est.a2a_bytes &&
           check.m2m_bytes == est.m2m_bytes &&
           "exchange_deltas: folded estimate disagrees with the equations");
#endif
    const CommDecision decision =
        decide_comm_mode(cfg_.comm_policy, cluster_.net(), est);
    const bool a2a = decision.mode == sim::CommMode::kAllToAll;
    std::uint64_t total_msgs = 0, total_wire = 0;
    for (const MachineExchange& x : exch_) {
      total_msgs += a2a ? x.msgs_a2a : x.msgs_m2m;
      for (machine_t r = 0; r < p; ++r) {
        total_wire += a2a ? x.a2a[r].total_bytes()
                          : x.up[r].total_bytes() + x.down[r].total_bytes();
      }
    }
    cluster_.charge_exchange(sim::SpanKind::kCoherencyExchange, decision.mode,
                             total_msgs * kDeltaBytes, total_wire, total_msgs,
                             &decision.prediction);

    cluster_.parallel_machines([&](machine_t r) {
      PartState<P>& rs = states_[r];
      for (machine_t m = 0; m < p; ++m) {
        for (const Delivery& d : exch_[m].outbox[r]) {
          deposit_msg(prog_, rs, d.lvid,
                      d.own ? without_own(prog_, d.total, rs.delta[d.lvid])
                            : d.total);
        }
      }
      exch_[r].active = rs.count_msgs();
    });
    std::uint64_t active = 0;
    for (const MachineExchange& x : exch_) active += x.active;
    return {decision, active};
  }

  const partition::DistributedGraph& dg_;
  P prog_;
  sim::Cluster& cluster_;
  RunConfig cfg_;
  const InitInjection* init_;
  CoherencyInspector<P> inspector_;
  IntervalModel interval_;
  std::vector<PartState<P>> states_;
  // Per-machine exchange buffers, members so steady-state exchanges
  // allocate nothing.
  std::vector<MachineExchange> exch_;
  double first_iter_seconds_ = 0.0;
};

}  // namespace lazygraph::engine
