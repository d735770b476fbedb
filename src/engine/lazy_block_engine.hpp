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
//     The exchange runs as three machine-parallel phases: every replica
//     machine buckets its flagged replicas by master, every master machine
//     merges its buckets into a mark bitset, and every master machine walks
//     its marks ascending to fold, encode and deliver (exchange_deltas).
//
// The adaptive interval model (Section 4.2.1) decides when lazy mode turns
// on; per Algorithm 1 line 16 it is sticky once enabled.
//
// All sweeps are frontier-driven and serial within a machine; machines run
// concurrently, so the run is bit-deterministic across cluster thread
// counts.
#pragma once

#include <algorithm>
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
    states_ = make_states(dg_, prog_, init_);
    cluster_.metrics().sweep_scanned +=
        init_lazy_messages(prog_, dg_, states_, init_);
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

  /// Sizes the pooled exchange scratch to its structural worst case — every
  /// spanning replica flagged in one exchange — so steady-state coherency
  /// points never grow it (the alloc probe asserts supersteps allocate
  /// nothing after warmup).
  void reserve_exchange_scratch() {
    const machine_t p = dg_.num_machines();
    exch_buckets_.assign(std::size_t{p} * p, {});
    exch_fresh_.assign(p, {});
    exch_mark_words_.assign(p, {});
    exch_marks_.assign(p, {});
    exch_tally_.assign(p, {});
    exch_up_coders_.assign(std::size_t{p} * p, {});
    exch_down_coders_.assign(std::size_t{p} * p, {});
    // cap[r*p + m]: spanning replicas on machine r whose master is on m.
    std::vector<std::size_t> cap(std::size_t{p} * p, 0);
    for (machine_t r = 0; r < p; ++r) {
      const partition::Part& part = dg_.part(r);
      for (lvid_t u = 0; u < part.num_local(); ++u) {
        if (part.num_replicas(u) > 1) {
          ++cap[std::size_t{r} * p + part.master[u]];
        }
      }
      exch_mark_words_[r].assign(Bitset::words_for(part.num_local()), 0);
      exch_marks_[r].attach(exch_mark_words_[r].data(), part.num_local());
    }
    for (machine_t m = 0; m < p; ++m) {
      std::size_t replicas = 0;  // of m's spanning masters
      for (machine_t r = 0; r < p; ++r) {
        const std::size_t i = std::size_t{r} * p + m;
        exch_buckets_[i].reserve(cap[i]);
        replicas += cap[i];
      }
      exch_fresh_[m].reserve(replicas);
    }
  }

  // Exchange_deltaMsgs: estimate both patterns' volumes with the paper's
  // equations, pick a mode, deliver others' deltas into every replica's
  // message slot, clear deltas. Three machine-parallel phases, each owned
  // per machine so the run stays bit-identical across cluster thread counts:
  //
  //   Derive (replica machine r): walk r's delta frontier and append the
  //     master lvid of every flagged spanning replica to bucket [r][master].
  //     Each flagged replica adds its share of the volume estimates:
  //     (rnum-1)·B to a2a and 1·B to m2m.
  //   Merge (master machine m, the coordinator): read the buckets [*][m]
  //     into m's mark bitset. Each 0->1 mark adds the m2m per-master term
  //     (rnum-2)·B. Summed, the shares give the paper's estimates
  //     a2a = Σ_v nd_v·(rnum_v-1)·B and m2m = Σ_v (nd_v+rnum_v-2)·B, with
  //     nd_v the number of v's replicas holding a delta.
  //   Deliver (coordinator m): walk m's mark words ascending, clearing them.
  //     Per master v, one replica walk in machine order folds the flagged
  //     deltas and notes the wire-codec records; a second deposits "others'
  //     deltas" into every replica and clears its delta flag.
  //
  // The estimates are deliberately on the UNCOMPRESSED per-record size: the
  // paper's fitted cost curves were calibrated against raw volumes, and
  // keeping the mode decision on raw bytes bounds how much the codec
  // perturbs the trajectory. Every flagged replica is on its delta frontier
  // exactly once (deposit_delta activates on the 0->1 flip and only this
  // exchange clears the flag, dropping the frontier with it), so each is
  // counted once; the debug build re-walks the replicas to check. The
  // delivery's replica slots are race-free (v belongs to one coordinator),
  // but flag words are shared with other masters' replicas, so it reads
  // them with load() and writes through the atomic proxy; fresh activations
  // are buffered per coordinator and applied to the (not thread-safe)
  // frontiers after the join. Returns the comm-mode decision it made.
  CommDecision exchange_deltas() {
    const machine_t p = dg_.num_machines();
    constexpr std::uint64_t kDeltaBytes = wire_bytes<typename P::Msg>();
    constexpr std::size_t kRecord = sizeof(typename P::Msg);
    const auto bucket = [&](machine_t r, machine_t m) -> std::vector<lvid_t>& {
      return exch_buckets_[std::size_t{r} * p + m];
    };

    cluster_.parallel_machines([&](machine_t r) {
      const partition::Part& rp = dg_.part(r);
      PartState<P>& rs = states_[r];
      for (machine_t m = 0; m < p; ++m) bucket(r, m).clear();
      std::uint64_t a2a_records = 0, flagged = 0;
      const std::size_t scanned =
          rs.delta_frontier.for_each_flagged(rs.has_delta, [&](lvid_t u) {
            const std::uint32_t rnum = rp.num_replicas(u);
            if (rnum <= 1) return;
            bucket(r, rp.master[u]).push_back(rp.master_lvid[u]);
            a2a_records += rnum - 1;
            ++flagged;
          });
      rs.delta_frontier.clear();
      exch_tally_[r] = {.scanned = scanned,
                        .est_a2a = a2a_records * kDeltaBytes,
                        .est_m2m = flagged * kDeltaBytes};
    });

    cluster_.parallel_machines([&](machine_t m) {
      const partition::Part& part = dg_.part(m);
      Bitset& marks = exch_marks_[m];
      std::uint64_t m2m_records = 0;
      for (machine_t r = 0; r < p; ++r) {
        for (const lvid_t v : bucket(r, m)) {
          if (marks[v]) continue;
          marks.set(v);
          m2m_records += part.num_replicas(v) - 2;
        }
      }
      exch_tally_[m].est_m2m += m2m_records * kDeltaBytes;
    });

    ExchangeEstimate est;
    for (const ExchangeTally& t : exch_tally_) {
      cluster_.metrics().sweep_scanned += t.scanned;
      est.a2a_bytes += t.est_a2a;
      est.m2m_bytes += t.est_m2m;
    }
#ifndef NDEBUG
    const ExchangeEstimate recount = recount_estimate();
    assert(recount.a2a_bytes == est.a2a_bytes &&
           recount.m2m_bytes == est.m2m_bytes &&
           "exchange_deltas: folded estimate disagrees with replica recount");
#endif
    const CommDecision decision =
        decide_comm_mode(cfg_.comm_policy, cluster_.net(), est);
    const bool a2a = decision.mode == sim::CommMode::kAllToAll;

    cluster_.parallel_machines([&](machine_t m) {
      const partition::Part& part = dg_.part(m);
      Bitset& marks = exch_marks_[m];
      wire::DeltaSizeCoder* up = &exch_up_coders_[std::size_t{m} * p];
      wire::DeltaSizeCoder* down = &exch_down_coders_[std::size_t{m} * p];
      for (machine_t r = 0; r < p; ++r) {
        up[r].reset();
        down[r].reset();
      }
      auto& fresh = exch_fresh_[m];
      fresh.clear();
      std::uint64_t msgs = 0;
      for (std::size_t i = marks.find_next(0); i < marks.size();
           i = marks.find_next(i + 1)) {
        marks.reset(i);
        const lvid_t v = static_cast<lvid_t>(i);
        const std::uint32_t rnum = part.num_replicas(v);
        const vid_t gid_v = part.gids[v];
        const auto& remotes = part.remote_replicas[v];

        // Fold the contributions in machine order (remotes are sorted by
        // machine; the master's own replica merges in like any other) and
        // note their records on the per-machine-pair codec streams, whose
        // gids ascend because v does. a2a: each contributor's record is
        // relayed to all rnum-1 other replicas; m2m: every non-master
        // contributor ships one record up, the master one per mirror down.
        // Frame headers are charged once per non-empty stream.
        bool have = false;
        typename P::Msg total{};
        std::uint32_t nd = 0;
        std::uint64_t contributors = 0;  // bit rm: machine rm's replica
        auto fold = [&](machine_t rm, lvid_t rv) {
          PartState<P>& rs = states_[rm];
          if (!rs.has_delta.load(rv)) return;
          total = have ? prog_.sum(total, rs.delta[rv]) : rs.delta[rv];
          have = true;
          ++nd;
          contributors |= std::uint64_t{1} << rm;
          if (a2a) {
            up[rm].add(gid_v, kRecord, rnum - 1);
          } else if (rm != m) {
            up[rm].add(gid_v, kRecord);
          }
        };
        bool self_done = false;
        for (const auto& [r, rl] : remotes) {
          if (!self_done && m < r) {
            fold(m, v);
            self_done = true;
          }
          fold(r, rl);
          if (!a2a) down[r].add(gid_v, kRecord);
        }
        if (!self_done) fold(m, v);
        assert(nd > 0 && "exchange_deltas: marked master without a delta");

        // Deliver "others' deltas" to every replica and clear its delta.
        // Raw deposits: the target frontiers belong to other machines.
        auto deliver = [&](machine_t rm, lvid_t rv) {
          PartState<P>& rs = states_[rm];
          if ((contributors >> rm) & 1) {
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
        for (const auto& [r, rl] : remotes) deliver(r, rl);

        msgs += a2a ? std::uint64_t{nd} * (rnum - 1)
                    : nd - ((contributors >> m) & 1) + (rnum - 1);
      }
      exch_tally_[m].msgs = msgs;
    });

    std::uint64_t total_msgs = 0;
    for (machine_t m = 0; m < p; ++m) {
      total_msgs += exch_tally_[m].msgs;
      for (const auto& [rm, rv] : exch_fresh_[m]) {
        states_[rm].frontier.activate(rv);
      }
    }
    std::uint64_t total_wire = 0;
    for (const auto& c : exch_up_coders_) total_wire += c.total_bytes();
    for (const auto& c : exch_down_coders_) total_wire += c.total_bytes();
    cluster_.charge_exchange(sim::SpanKind::kCoherencyExchange, decision.mode,
                             total_msgs * kDeltaBytes, total_wire, total_msgs,
                             &decision.prediction);
    return decision;
  }

#ifndef NDEBUG
  /// The paper's estimate equations evaluated directly: every marked master
  /// re-walks its replicas' has_delta flags (what the folded shares replace).
  ExchangeEstimate recount_estimate() const {
    constexpr std::uint64_t kDeltaBytes = wire_bytes<typename P::Msg>();
    ExchangeEstimate est;
    for (machine_t m = 0; m < dg_.num_machines(); ++m) {
      const partition::Part& part = dg_.part(m);
      const Bitset& marks = exch_marks_[m];
      for (std::size_t v = marks.find_next(0); v < marks.size();
           v = marks.find_next(v + 1)) {
        const std::uint64_t rnum = part.num_replicas(static_cast<lvid_t>(v));
        std::uint64_t nd = states_[m].has_delta[v] ? 1 : 0;
        for (const auto& [r, rl] : part.remote_replicas[v]) {
          nd += states_[r].has_delta[rl] ? 1 : 0;
        }
        est.a2a_bytes += nd * (rnum - 1) * kDeltaBytes;
        est.m2m_bytes += (nd + rnum - 2) * kDeltaBytes;
      }
    }
    return est;
  }
#endif

  /// One machine's per-exchange tallies, each written by its one owner per
  /// phase: the frontier slots it scanned and its shares of the volume
  /// estimates, then (as coordinator) the messages its pattern sends.
  struct ExchangeTally {
    std::uint64_t scanned = 0;
    std::uint64_t est_a2a = 0;
    std::uint64_t est_m2m = 0;
    std::uint64_t msgs = 0;
  };

  const partition::DistributedGraph& dg_;
  P prog_;
  sim::Cluster& cluster_;
  RunConfig cfg_;
  const InitInjection* init_;
  CoherencyInspector<P> inspector_;
  IntervalModel interval_;
  std::vector<PartState<P>> states_;
  // Pooled per-exchange scratch, members so steady-state exchanges
  // allocate nothing: worklist buckets [replica machine*p + master
  // machine], per-coordinator master marks (Bitset views over the words),
  // buffered fresh activations, per-machine tallies, and the wire-codec
  // stream matrices [coordinator*p + peer].
  std::vector<std::vector<lvid_t>> exch_buckets_;
  std::vector<std::vector<std::uint64_t>> exch_mark_words_;
  std::vector<Bitset> exch_marks_;
  std::vector<std::vector<std::pair<machine_t, lvid_t>>> exch_fresh_;
  std::vector<ExchangeTally> exch_tally_;
  std::vector<wire::DeltaSizeCoder> exch_up_coders_, exch_down_coders_;
  double first_iter_seconds_ = 0.0;
};

}  // namespace lazygraph::engine
