#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>

#include "util/common.hpp"
#include "util/flat_set.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace lazygraph {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng root(99);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 5);
}

TEST(Mix64, InjectiveOnSmallInputs) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 10000; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 10000u);
}

TEST(Require, ThrowsOnFalse) {
  EXPECT_THROW(require(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(require(true, "ok"));
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

// Re-entrant parallel_for from a worker of the same pool must execute the
// nested range inline: a worker that instead enqueued helper tasks and
// blocked on the nested join could starve once every other worker was itself
// parked inside a nested join. Guarded by the suite's ctest TIMEOUT, so a
// reintroduced starvation shows up as a killed test rather than a hang.
TEST(ThreadPool, NestedParallelForFromWorkersCompletes) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { ++total; });
    });
  });
  EXPECT_EQ(total.load(), 8 * 16 * 4);
}

TEST(ThreadPool, NestedCallsFromManyOuterTasksDoNotStarve) {
  // More outer tasks than workers, each joining a nested range — the shape
  // that would deadlock if nested joins parked workers instead of running
  // the nested body inline.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) {
    pool.parallel_for(32, [&](std::size_t) { ++hits[i]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 32);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(10, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolChunks, CoversEveryIndexExactlyOnceInChunkSlices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_chunks(1000, 64, 4, [&](std::size_t begin,
                                            std::size_t end) {
    EXPECT_EQ(begin % 64, 0u);          // chunk-aligned slices
    EXPECT_LE(end, std::size_t{1000});
    EXPECT_LE(end - begin, std::size_t{64});
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolChunks, EmptyAndSingleChunkRunInline) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_chunks(0, 16, 2, [&](std::size_t, std::size_t) {
    ran = true;
  });
  EXPECT_FALSE(ran);
  int calls = 0;
  pool.parallel_for_chunks(10, 16, 2, [&](std::size_t begin,
                                          std::size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolChunks, MaxThreadsOneRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for_chunks(512, 32, 1, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolChunks, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_chunks(256, 16, 2,
                               [&](std::size_t begin, std::size_t) {
                                 if (begin == 64) throw std::runtime_error("x");
                               }),
      std::runtime_error);
}

// The engines call parallel_for_chunks from inside parallel_machines (a
// parallel_for body on the same pool). The caller-drains design must keep
// that nesting deadlock-free: chunk bodies never block, and the enqueueing
// worker participates in draining its own chunks.
TEST(ThreadPoolChunks, NestedInsideParallelForCompletes) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(6, [&](std::size_t) {
    pool.parallel_for_chunks(128, 16, 3, [&](std::size_t begin,
                                             std::size_t end) {
      total += static_cast<int>(end - begin);
    });
  });
  EXPECT_EQ(total.load(), 6 * 128);
}

TEST(FlatU64Set, InsertReportsWhetherTheKeyWasNew) {
  FlatU64Set set(1000);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(set.insert(k * 0x9e3779b97f4a7c15u)) << k;
  }
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_FALSE(set.insert(k * 0x9e3779b97f4a7c15u)) << k;
  }
}

TEST(FlatU64Set, RejectsMoreKeysThanSizedFor) {
  FlatU64Set set(2);
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(FlatU64Set::kEmpty - 1));
  EXPECT_FALSE(set.insert(0));  // a repeat still answers
  EXPECT_THROW(set.insert(7), std::length_error);
}

TEST(RunningStat, MeanMinMax) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(RunningStat, VarianceMatchesTextbook) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10.0, 5);
  h.add(0.5);   // bucket 0
  h.add(9.9);   // bucket 4
  h.add(50.0);  // clamped to last
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[4], 2u);
}

TEST(Table, FormatsRows) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("a"), std::string::npos);
  EXPECT_NE(os.str().find("2"), std::string::npos);
}

TEST(Table, RejectsWidthMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1", "--beta=x"};
  Options o(5, argv);
  EXPECT_TRUE(o.has("alpha"));
  EXPECT_EQ(o.get_int("alpha", 0), 3);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_EQ(o.get("beta", ""), "x");
  EXPECT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos1");
}

// A bare --flag carries no value: string/number getters fall back to their
// default (so `--trace` means "trace to the default file", not to a file
// named "true"), while get_bool reads it as set.
TEST(Options, BareFlagIsPresentWithNoValue) {
  const char* argv[] = {"prog", "--trace", "--depth", "--verbose"};
  Options o(4, argv);
  EXPECT_TRUE(o.has("trace"));
  EXPECT_EQ(o.get("trace", "trace.jsonl"), "trace.jsonl");
  EXPECT_EQ(o.get_int("depth", 7), 7);
  EXPECT_DOUBLE_EQ(o.get_double("depth", 2.5), 2.5);
  EXPECT_TRUE(o.get_bool("verbose", false));
}

// A flag outside the accepted list is an error naming it and listing the
// accepted flags (a removed flag must not be silently ignored).
TEST(Options, RejectsUnknownFlagNamingItAndTheAcceptedOnes) {
  const char* argv[] = {"prog", "--machines=4", "--retired-knob=2",
                        "--trace"};
  Options o(4, argv);
  try {
    o.reject_unknown({"machines", "trace"});
    ADD_FAILURE() << "--retired-knob was accepted";
  } catch (const OptionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--retired-knob"), std::string::npos) << what;
    EXPECT_NE(what.find("--machines, --trace"), std::string::npos) << what;
  }
  // A bare unknown flag is rejected too.
  const char* bare[] = {"prog", "--retired-flag"};
  EXPECT_THROW(Options(2, bare).reject_unknown({"machines"}), OptionError);
}

TEST(Options, AcceptsKnownFlags) {
  const char* argv[] = {"prog", "--machines=4", "--trace"};
  Options o(3, argv);
  EXPECT_NO_THROW(o.reject_unknown({"machines", "trace", "seed"}));
  const char* none[] = {"prog"};
  EXPECT_NO_THROW(Options(1, none).reject_unknown({}));
}

// `--algo sssp` parses as a bare --algo plus the positional "sssp"; a tool
// must refuse it rather than run its default algorithm.
TEST(Options, RejectsStrayPositionalNamingIt) {
  const char* argv[] = {"prog", "--algo", "sssp", "--machines=4"};
  Options o(4, argv);
  try {
    o.reject_unknown({"algo", "machines"});
    ADD_FAILURE() << "stray positional 'sssp' was accepted";
  } catch (const OptionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'sssp'"), std::string::npos) << what;
    EXPECT_NE(what.find("--flag=value"), std::string::npos) << what;
  }
}

TEST(Options, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Options o(1, argv);
  EXPECT_FALSE(o.has("missing"));
  EXPECT_EQ(o.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(o.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(o.get_bool("missing", false));
}

// Booleans take true/false, 1/0, yes/no or a bare flag; anything else is an
// error naming the flag, never a silent false (`--split=flase` used to run
// unsplit).
TEST(Options, ParsesBoolsAndRejectsMalformedOnes) {
  const char* argv[] = {"prog", "--a=true", "--b=1",  "--c=yes",
                        "--d=false", "--e=0", "--f=no", "--g"};
  Options o(8, argv);
  for (const char* on : {"a", "b", "c", "g"}) {
    EXPECT_TRUE(o.get_bool(on, false)) << on;
  }
  for (const char* off : {"d", "e", "f"}) {
    EXPECT_FALSE(o.get_bool(off, true)) << off;
  }
  for (const char* bad : {"--split=flase", "--split=", "--split=TRUE",
                          "--split=2", "--split= yes"}) {
    const char* args[] = {"prog", bad};
    Options b(2, args);
    try {
      b.get_bool("split", true);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const OptionError& e) {
      EXPECT_NE(std::string(e.what()).find("--split"), std::string::npos)
          << e.what();
    }
  }
}

// Malformed or out-of-range numbers are errors that name the flag, never a
// silent 0 (`--machines=abc` used to parse as 0).
TEST(Options, RejectsMalformedIntegers) {
  for (const char* bad : {"--machines=abc", "--machines=12x", "--machines=",
                          "--machines= 4", "--machines=4.5"}) {
    const char* argv[] = {"prog", bad};
    Options o(2, argv);
    try {
      o.get_int("machines", 8);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const OptionError& e) {
      EXPECT_NE(std::string(e.what()).find("--machines"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Options, RejectsOutOfRangeIntegers) {
  const char* argv[] = {"prog", "--huge=99999999999999999999", "--m=0",
                        "--n=65", "--neg=-3", "--ok=64"};
  Options o(6, argv);
  EXPECT_THROW(o.get_int("huge", 0), OptionError);
  EXPECT_THROW(o.get_int("m", 8, 1, 64), OptionError);
  EXPECT_THROW(o.get_int("n", 8, 1, 64), OptionError);
  EXPECT_THROW(o.get_int("neg", 0, 0), OptionError);
  EXPECT_EQ(o.get_int("neg", 0), -3);
  EXPECT_EQ(o.get_int("ok", 8, 1, 64), 64);
  try {
    o.get_int("m", 8, 1, 64);
  } catch (const OptionError& e) {
    EXPECT_EQ(std::string(e.what()),
              "--m: 0 is out of range (must be [1, 64])");
  }
}

TEST(Options, RejectsMalformedAndNonFiniteDoubles) {
  const char* argv[] = {"prog", "--a=abc", "--b=0.5x", "--c=1e999",
                        "--d=nan", "--e=", "--f=2.5e-3"};
  Options o(7, argv);
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    try {
      o.get_double(key, 1.0);
      ADD_FAILURE() << key << " was accepted";
    } catch (const OptionError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(std::string("--") + key + ":", 0),
                0u)
          << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(o.get_double("f", 1.0), 2.5e-3);
}

}  // namespace
}  // namespace lazygraph
