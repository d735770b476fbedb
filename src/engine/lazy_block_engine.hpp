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
//
// The adaptive interval model (Section 4.2.1) decides when lazy mode turns
// on; per Algorithm 1 line 16 it is sticky once enabled.
//
// All sweeps are frontier-driven and serial within a machine; machines run
// concurrently, so the run is bit-deterministic across cluster thread
// counts.
#pragma once

#include <algorithm>
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
    states_ = make_states(dg_, prog_, init_);
    cluster_.metrics().sweep_scanned +=
        init_lazy_messages(prog_, dg_, states_, init_);
    exch_pending_.assign(p, {});
    exch_fresh_.assign(p, {});
    // Reserve the pooled exchange scratch to its structural worst case —
    // every replica of every spanning master flagged in one exchange — so
    // steady-state coherency points never grow these buffers (the alloc
    // probe asserts supersteps allocate nothing after warmup).
    for (machine_t m = 0; m < p; ++m) {
      const partition::Part& part = dg_.part(m);
      std::uint64_t replicas = 0;
      for (lvid_t v = 0; v < part.num_local(); ++v) {
        if (part.master[v] == m) replicas += 1 + part.remote_replicas[v].size();
      }
      exch_pending_[m].reserve(replicas);
      exch_fresh_[m].reserve(replicas);
    }
    exch_est_a2a_.assign(p, 0);
    exch_est_m2m_.assign(p, 0);
    exch_msgs_.assign(p, 0);
    exch_bytes_.assign(p, 0);
    exch_up_coders_.assign(std::size_t{p} * p, {});
    exch_down_coders_.assign(std::size_t{p} * p, {});
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
      const CommDecision comm = exchange_deltas();
      cluster_.charge_barrier();  // the single global sync of the iteration

      std::uint64_t active = 0;
      for (machine_t m = 0; m < p; ++m) active += states_[m].count_msgs();
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

  // Exchange_deltaMsgs: estimate both patterns' volumes with the paper's
  // equations, pick a mode, deliver others' deltas into every replica's
  // message slot, clear deltas. Parallelized by master ownership: vertex v is
  // handled exclusively by its master's machine, so all reads/writes of v's
  // replica slots are race-free (frontier appends are NOT — fresh
  // activations are buffered per worker and applied serially after the
  // join). Only vertices on the delta frontiers are visited. Returns the
  // comm-mode decision it made.
  CommDecision exchange_deltas() {
    const machine_t p = dg_.num_machines();
    constexpr std::uint64_t kDeltaBytes = wire_bytes<typename P::Msg>();

    // Derive per-master worklists from the delta frontiers. Every raised
    // has_delta flag is cleared by the delivery pass below (deltas only
    // exist on spanning vertices, all of which it visits), so the frontiers
    // can be dropped now.
    for (auto& l : exch_pending_) l.clear();
    for (machine_t r = 0; r < p; ++r) {
      const partition::Part& rp = dg_.part(r);
      PartState<P>& rs = states_[r];
      cluster_.metrics().sweep_scanned +=
          rs.delta_frontier.for_each_flagged(rs.has_delta, [&](lvid_t u) {
            exch_pending_[rp.master[u]].push_back(rp.master_lvid[u]);
          });
      rs.delta_frontier.clear();
    }
    cluster_.parallel_machines([&](machine_t m) {
      auto& l = exch_pending_[m];
      std::sort(l.begin(), l.end());
      l.erase(std::unique(l.begin(), l.end()), l.end());
    });

    // Pass 1: volume estimates (read-only). Deliberately computed on the
    // UNCOMPRESSED per-record size: the paper's fitted cost curves were
    // calibrated against raw volumes, and keeping the mode decision on raw
    // bytes bounds how much the codec perturbs the trajectory.
    auto& est_a2a = exch_est_a2a_;
    auto& est_m2m = exch_est_m2m_;
    std::fill(est_a2a.begin(), est_a2a.end(), 0);
    std::fill(est_m2m.begin(), est_m2m.end(), 0);
    cluster_.parallel_machines([&](machine_t m) {
      const partition::Part& part = dg_.part(m);
      for (const lvid_t v : exch_pending_[m]) {
        const std::uint32_t rnum = part.num_replicas(v);
        if (rnum <= 1) continue;
        std::uint32_t nd = states_[m].has_delta[v] ? 1 : 0;
        for (const auto& [r, rl] : part.remote_replicas[v]) {
          nd += states_[r].has_delta[rl] ? 1 : 0;
        }
        if (nd == 0) continue;  // stale worklist entry
        est_a2a[m] += static_cast<std::uint64_t>(nd) * (rnum - 1) * kDeltaBytes;
        est_m2m[m] += static_cast<std::uint64_t>(nd + rnum - 2) * kDeltaBytes;
      }
    });
    ExchangeEstimate est;
    for (machine_t m = 0; m < p; ++m) {
      est.a2a_bytes += est_a2a[m];
      est.m2m_bytes += est_m2m[m];
    }
    const CommDecision decision =
        decide_comm_mode(cfg_.comm_policy, cluster_.net(), est);
    const sim::CommMode mode = decision.mode;

    // Pass 2: deliver and clear.
    auto& msgs = exch_msgs_;
    auto& bytes = exch_bytes_;
    std::fill(msgs.begin(), msgs.end(), 0);
    std::fill(bytes.begin(), bytes.end(), 0);
    for (auto& c : exch_up_coders_) c.reset();
    for (auto& c : exch_down_coders_) c.reset();
    for (auto& f : exch_fresh_) f.clear();
    cluster_.parallel_machines([&](machine_t m) {
      const partition::Part& part = dg_.part(m);
      auto& fresh = exch_fresh_[m];
      for (const lvid_t v : exch_pending_[m]) {
        const std::uint32_t rnum = part.num_replicas(v);
        if (rnum <= 1) continue;

        // Collect contributions in deterministic (machine) order. The own
        // (master-machine) replica participates like any other.
        bool have = false;
        typename P::Msg total{};
        std::uint32_t nd = 0;
        bool master_has = false;
        auto fold = [&](machine_t rm, lvid_t rv) {
          PartState<P>& rs = states_[rm];
          if (!rs.has_delta[rv]) return;
          total = have ? prog_.sum(total, rs.delta[rv]) : rs.delta[rv];
          have = true;
          ++nd;
          if (rm == part.master[v]) master_has = true;
        };
        // remote_replicas is sorted by machine; merge own machine in order.
        bool self_done = false;
        for (const auto& [r, rl] : part.remote_replicas[v]) {
          if (!self_done && m < r) {
            fold(m, v);
            self_done = true;
          }
          fold(r, rl);
        }
        if (!self_done) fold(m, v);
        if (nd == 0) continue;  // stale worklist entry

        // Wire-codec accounting BEFORE delivery clears the flags: per
        // machine-pair streams of strictly ascending gids (v ascends within
        // this coordinator's worklist). a2a: each contributor's record body
        // is relayed to all rnum-1 other replicas (copies); m2m: non-master
        // contributors ship one record up, the master ships one per mirror
        // down. Frame headers are charged once per non-empty stream.
        const vid_t gid_v = part.gids[v];
        if (mode == sim::CommMode::kAllToAll) {
          auto note = [&](machine_t rm, lvid_t rv) {
            if (states_[rm].has_delta[rv]) {
              exch_up_coders_[std::size_t{m} * p + rm].add(
                  gid_v, sizeof(typename P::Msg), rnum - 1);
            }
          };
          note(m, v);
          for (const auto& [r, rl] : part.remote_replicas[v]) note(r, rl);
        } else {
          auto note_up = [&](machine_t rm, lvid_t rv) {
            if (rm != m && states_[rm].has_delta[rv]) {
              exch_up_coders_[std::size_t{m} * p + rm].add(
                  gid_v, sizeof(typename P::Msg));
            }
          };
          note_up(m, v);
          for (const auto& [r, rl] : part.remote_replicas[v]) note_up(r, rl);
          for (const auto& [r, rl] : part.remote_replicas[v]) {
            (void)rl;
            exch_down_coders_[std::size_t{m} * p + r].add(
                gid_v, sizeof(typename P::Msg));
          }
        }

        // Deliver "others' deltas" to every replica and clear its delta.
        // Raw deposits: the target frontiers belong to other machines, so
        // fresh activations are buffered and appended after the join.
        auto deliver = [&](machine_t rm, lvid_t rv) {
          PartState<P>& rs = states_[rm];
          if (rs.has_delta[rv]) {
            if (nd > 1 &&
                deposit_msg_raw(prog_, rs, rv,
                                without_own(prog_, total, rs.delta[rv]))) {
              fresh.emplace_back(rm, rv);
            }
            rs.has_delta[rv] = 0;
          } else if (deposit_msg_raw(prog_, rs, rv, total)) {
            fresh.emplace_back(rm, rv);
          }
        };
        deliver(m, v);
        for (const auto& [r, rl] : part.remote_replicas[v]) deliver(r, rl);

        // Traffic accounting for the chosen pattern.
        if (mode == sim::CommMode::kAllToAll) {
          const std::uint64_t cnt =
              static_cast<std::uint64_t>(nd) * (rnum - 1);
          msgs[m] += cnt;
          bytes[m] += cnt * kDeltaBytes;
        } else {
          const std::uint64_t cnt =
              (nd - (master_has ? 1 : 0)) + (rnum - 1);
          msgs[m] += cnt;
          bytes[m] += cnt * kDeltaBytes;
        }
      }
    });
    for (machine_t m = 0; m < p; ++m) {
      for (const auto& [rm, rv] : exch_fresh_[m]) {
        states_[rm].frontier.activate(rv);
      }
    }
    std::uint64_t total_msgs = 0, total_raw = 0;
    for (machine_t m = 0; m < p; ++m) {
      total_msgs += msgs[m];
      total_raw += bytes[m];
    }
    std::uint64_t total_wire = 0;
    for (const auto& c : exch_up_coders_) total_wire += c.total_bytes();
    for (const auto& c : exch_down_coders_) total_wire += c.total_bytes();
    cluster_.charge_exchange(sim::SpanKind::kCoherencyExchange, mode,
                             total_raw, total_wire, total_msgs,
                             &decision.prediction);
    return decision;
  }

  const partition::DistributedGraph& dg_;
  P prog_;
  sim::Cluster& cluster_;
  RunConfig cfg_;
  const InitInjection* init_;
  CoherencyInspector<P> inspector_;
  IntervalModel interval_;
  std::vector<PartState<P>> states_;
  std::vector<std::vector<lvid_t>> exch_pending_;
  std::vector<std::vector<std::pair<machine_t, lvid_t>>> exch_fresh_;
  // Pooled per-exchange scratch (estimates, per-machine tallies, and the
  // wire-codec stream matrices [coordinator*p + peer]) — members so
  // steady-state exchanges allocate nothing.
  std::vector<std::uint64_t> exch_est_a2a_, exch_est_m2m_;
  std::vector<std::uint64_t> exch_msgs_, exch_bytes_;
  std::vector<wire::DeltaSizeCoder> exch_up_coders_, exch_down_coders_;
  double first_iter_seconds_ = 0.0;
};

}  // namespace lazygraph::engine
