// Reproduces Fig. 11: communication traffic of LazyGraph, normalized by
// PowerGraph Sync, for the four algorithms on 48 machines. Eager coherency
// ships a mirror accumulator plus a full vertex-data broadcast for every
// update; lazy coherency ships one aggregated delta per replica per
// coherency point, so normalized traffic falls below 1.
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

  std::cout << "Fig. 11: communication traffic, normalized by PowerGraph "
               "Sync ("
            << cfg.machines << " machines)\n\n";
  for (const Algo algo : bench::all_algos()) {
    Table t({"graph", "sync-MB", "lazy-MB", "normalized"});
    for (const auto& spec : datasets::table1_specs()) {
      const auto sync =
          bench::run_cell(algo, spec, engine::EngineKind::kSync, cfg);
      const auto lazy =
          bench::run_cell(algo, spec, engine::EngineKind::kLazyBlock, cfg);
      const double sync_mb =
          static_cast<double>(sync.network_bytes) / (1024.0 * 1024.0);
      const double lazy_mb =
          static_cast<double>(lazy.network_bytes) / (1024.0 * 1024.0);
      t.add_row({spec.name, Table::num(sync_mb, 3), Table::num(lazy_mb, 3),
                 Table::num(lazy_mb / sync_mb, 3)});
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
