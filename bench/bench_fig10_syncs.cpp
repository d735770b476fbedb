// Reproduces Fig. 10: number of global synchronizations of LazyGraph,
// normalized by PowerGraph Sync, for the four algorithms on 48 machines.
// The paper's eager baseline pays three global syncs per superstep; LazyGraph
// pays one per coherency point, and the adaptive interval stretches the
// distance between coherency points, so the normalized counts drop well
// below 1/3 (road graphs reach a few percent).
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

  std::cout << "Fig. 10: global synchronizations, normalized by PowerGraph "
               "Sync ("
            << cfg.machines << " machines)\n\n";
  for (const Algo algo : bench::all_algos()) {
    Table t({"graph", "sync-syncs", "lazy-syncs", "normalized"});
    for (const auto& spec : datasets::table1_specs()) {
      const auto sync =
          bench::run_cell(algo, spec, engine::EngineKind::kSync, cfg);
      const auto lazy =
          bench::run_cell(algo, spec, engine::EngineKind::kLazyBlock, cfg);
      t.add_row({spec.name, Table::num(sync.global_syncs),
                 Table::num(lazy.global_syncs),
                 Table::num(static_cast<double>(lazy.global_syncs) /
                                static_cast<double>(sync.global_syncs),
                            3)});
    }
    std::cout << "--- " << to_string(algo) << " ---\n";
    t.print(std::cout);
    std::cout << '\n';
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
