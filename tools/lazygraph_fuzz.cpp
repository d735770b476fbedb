// Differential fuzzer for the four engines.
//
//   lazygraph_fuzz --seed=N --iters=K      run K generated scenarios
//   lazygraph_fuzz --seed=N --only=I       run only corpus entry I
//   lazygraph_fuzz --replay=FILE           re-check a dumped scenario
//
// Every scenario runs through all four engines and the full oracle
// invariant set (see src/testing/oracle.hpp). On failure the scenario is
// greedily shrunk (disable with --shrink=false) and both the original and
// the minimized case are dumped in replayable text form; with
// --dump-dir=DIR the minimized case is also written to a file. Exit status
// is the number of failing scenarios (capped at --max-failures, default 3).
// A malformed or out-of-range flag value, or an unknown flag, exits 2 with a
// message naming the flag. Other flags: --determinism=false skips the
// determinism re-runs, --verbose=true prints every scenario.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "testing/oracle.hpp"
#include "testing/scenario.hpp"
#include "testing/shrinker.hpp"
#include "util/options.hpp"

namespace {

constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();

using lazygraph::testing::OracleOptions;
using lazygraph::testing::Scenario;
using lazygraph::testing::Verdict;

void dump(const Scenario& s, const std::string& label) {
  std::cout << "---- " << label << " ----\n" << s.to_text() << "----\n";
}

int replay(const std::string& file, const OracleOptions& oracle_opts) {
  std::ifstream in(file);
  if (!in) {
    std::cerr << "cannot open " << file << "\n";
    return 2;
  }
  const Scenario s = Scenario::from_text(in);
  std::cout << "replaying: " << s.summary() << "\n";
  const Verdict v = lazygraph::testing::check_scenario(s, oracle_opts);
  if (v.ok) {
    std::cout << "PASS\n";
    return 0;
  }
  std::cout << "FAIL: " << v.failure << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const lazygraph::Options opt(argc, argv);
  opt.reject_unknown({"seed", "iters", "only", "replay", "shrink", "dump-dir",
                      "max-failures", "determinism", "verbose"});
  OracleOptions oracle_opts;
  oracle_opts.check_determinism = opt.get_bool("determinism", true);

  if (opt.has("replay")) return replay(opt.get("replay", ""), oracle_opts);

  const std::uint64_t seed =
      static_cast<std::uint64_t>(opt.get_int("seed", 1, 0));
  const std::uint64_t iters =
      static_cast<std::uint64_t>(opt.get_int("iters", 100, 0));
  const bool do_shrink = opt.get_bool("shrink", true);
  const bool verbose = opt.get_bool("verbose", false);
  const int max_failures = static_cast<int>(
      opt.get_int("max-failures", 3, 0, kMaxInt));
  const std::string dump_dir = opt.get("dump-dir", "");

  std::uint64_t first = 0, last = iters;
  if (opt.has("only")) {
    first = static_cast<std::uint64_t>(opt.get_int("only", 0, 0));
    last = first + 1;
  }

  int failures = 0;
  for (std::uint64_t i = first; i < last; ++i) {
    const Scenario s = lazygraph::testing::make_scenario(seed, i);
    if (verbose) std::cout << "#" << i << " " << s.summary() << "\n";
    const Verdict v = lazygraph::testing::check_scenario(s, oracle_opts);
    if (v.ok) continue;

    ++failures;
    std::cout << "FAIL scenario #" << i << " (--seed=" << seed
              << " --only=" << i << ")\n  " << s.summary() << "\n  "
              << v.failure << "\n";
    dump(s, "failing scenario");
    if (do_shrink) {
      const auto rep = lazygraph::testing::shrink(s, [&](const Scenario& c) {
        return !lazygraph::testing::check_scenario(c, oracle_opts).ok;
      });
      const Verdict sv =
          lazygraph::testing::check_scenario(rep.scenario, oracle_opts);
      std::cout << "shrunk after " << rep.attempts << " attempts ("
                << rep.accepted << " accepted): " << rep.scenario.summary()
                << "\n  " << sv.failure << "\n";
      dump(rep.scenario, "shrunk scenario");
      if (!dump_dir.empty()) {
        std::ostringstream name;
        name << dump_dir << "/fuzz-failure-" << seed << "-" << i
             << ".scenario";
        std::ofstream out(name.str());
        rep.scenario.to_text(out);
        std::cout << "written to " << name.str()
                  << " (replay with --replay=" << name.str() << ")\n";
      }
    }
    if (failures >= max_failures) {
      std::cout << "stopping after " << failures << " failures\n";
      break;
    }
  }

  std::cout << (last - first) << " scenarios, " << failures << " failures\n";
  return failures == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
