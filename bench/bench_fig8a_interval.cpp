// Reproduces Fig. 8(a): the adaptive interval strategy vs the simple
// strategy ("lazy always on, every local computation stage runs to
// convergence") on SSSP. The paper shows the adaptive strategy winning across
// graph families; we run it on one representative of each family plus the
// never-lazy ablation.
#include <iostream>

#include "experiment_matrix.hpp"

using namespace lazygraph;
using bench::Algo;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  opts.reject_unknown({"machines", "scale", "algo"});
  bench::ExperimentConfig cfg;
  cfg.machines = static_cast<machine_t>(opts.get_int("machines", 48));
  cfg.dataset_scale = opts.get_double("scale", 1.0);

  const std::vector<std::string> graphs = {"roadusa-like", "uk2005-like",
                                           "twitter-like", "livejournal-like"};
  const Algo algo =
      opts.get("algo", "sssp") == "pagerank" ? Algo::kPageRank : Algo::kSSSP;

  std::cout << "Fig. 8(a): interval strategies on " << to_string(algo) << " ("
            << cfg.machines << " machines)\n\n";
  Table t({"graph", "adaptive(s)", "always-lazy(s)", "never-lazy(s)",
           "adaptive-speedup-vs-simple"});
  for (const auto& name : graphs) {
    const auto& spec = datasets::spec_by_name(name);
    double secs[3] = {};
    int i = 0;
    for (const auto policy :
         {engine::IntervalPolicy::kAdaptive, engine::IntervalPolicy::kAlwaysLazy,
          engine::IntervalPolicy::kNeverLazy}) {
      cfg.interval = policy;
      secs[i++] =
          bench::run_cell(algo, spec, engine::EngineKind::kLazyBlock, cfg)
              .sim_seconds;
    }
    t.add_row({name, Table::num(secs[0], 3), Table::num(secs[1], 3),
               Table::num(secs[2], 3), Table::num(secs[1] / secs[0], 2)});
  }
  t.print(std::cout);
  std::cout << "\n(simple strategy = always-lazy with local stages run to "
               "convergence, as in the paper)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
