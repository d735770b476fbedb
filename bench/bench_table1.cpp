// Reproduces Table 1: the evaluation graphs with #V, #E, E/V and the
// replication factor lambda under coordinated vertex-cut on 48 partitions.
// Paper values are printed alongside for comparison (analogues are scaled
// down ~100-1000x, so #V/#E differ by design; E/V and the lambda *ordering*
// are the properties that must match).
#include <iostream>

#include "experiment_matrix.hpp"

using namespace lazygraph;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  opts.reject_unknown({"machines", "scale"});
  const auto machines =
      static_cast<machine_t>(opts.get_int("machines", 48));
  const double scale = opts.get_double("scale", 1.0);

  Table t({"graph", "paper-graph", "#V", "#E", "E/V", "paper-E/V", "lambda",
           "paper-lambda"});
  for (const auto& spec : datasets::table1_specs()) {
    const Graph& g = bench::dataset_graph(spec, scale, /*symmetrize=*/false);
    const auto assignment = partition::assign_edges(
        g, machines, {partition::CutKind::kCoordinated, 2018});
    const double lambda =
        partition::replication_factor(g, assignment, machines);
    t.add_row({spec.name, spec.paper_name, Table::num(g.num_vertices()),
               Table::num(g.num_edges()),
               Table::num(g.edge_vertex_ratio(), 2),
               Table::num(spec.paper_ev_ratio, 2), Table::num(lambda, 2),
               Table::num(spec.paper_lambda, 2)});
  }
  std::cout << "Table 1: real-world graph analogues, coordinated cut on "
            << machines << " partitions\n\n";
  t.print(std::cout);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
