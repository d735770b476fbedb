// Reproduces Fig. 9: speedup of LazyGraph over PowerGraph Sync for k-core,
// PageRank, SSSP and CC across the eight real-world graph analogues on 48
// simulated machines. The paper reports speedups from 1.25x to 10.69x, with
// per-algorithm averages 3.95x (k-core), 3.1x (PageRank), 4.57x (SSSP),
// 3.91x (CC); the largest gains are on the road graphs (lowest lambda) and
// the smallest on twitter (high lambda).
#include <iostream>

#include "experiment_matrix.hpp"

using namespace lazygraph;
using bench::Algo;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  opts.reject_unknown({"machines", "scale"});
  bench::ExperimentConfig cfg;
  cfg.machines = static_cast<machine_t>(opts.get_int("machines", 48));
  cfg.dataset_scale = opts.get_double("scale", 1.0);

  std::cout << "Fig. 9: LazyGraph speedup over PowerGraph Sync ("
            << cfg.machines << " machines)\n\n";

  for (const Algo algo : bench::all_algos()) {
    Table t({"graph", "lambda", "sync(s)", "lazy(s)", "speedup",
             "paper-range"});
    RunningStat speedups;
    for (const auto& spec : datasets::table1_specs()) {
      const auto sync =
          bench::run_cell(algo, spec, engine::EngineKind::kSync, cfg);
      const auto lazy =
          bench::run_cell(algo, spec, engine::EngineKind::kLazyBlock, cfg);
      const double speedup = sync.sim_seconds / lazy.sim_seconds;
      speedups.add(speedup);
      t.add_row({spec.name, Table::num(lazy.replication_factor, 2),
                 Table::num(sync.sim_seconds, 3),
                 Table::num(lazy.sim_seconds, 3), Table::num(speedup, 2),
                 "1.25x-10.69x"});
    }
    std::cout << "--- " << to_string(algo)
              << " (paper average: "
              << (algo == Algo::kKCore      ? "3.95x"
                  : algo == Algo::kPageRank ? "3.10x"
                  : algo == Algo::kSSSP     ? "4.57x"
                                            : "3.91x")
              << ") ---\n";
    t.print(std::cout);
    std::cout << "measured average speedup: " << Table::num(speedups.mean(), 2)
              << "x (min " << Table::num(speedups.min(), 2) << "x, max "
              << Table::num(speedups.max(), 2) << "x)\n\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
