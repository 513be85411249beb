// Unit tests for the utility substrate: RNG determinism and distribution
// sanity, statistics accumulators, tables, CLI parsing, spin barrier.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <sstream>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/spin_barrier.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ff::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(99);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.1);
  }
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo = saw_lo || v == 5;
    saw_hi = saw_hi || v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01Bounds) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Xoshiro256 rng(17);
  int hits = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256 a(42);
  Xoshiro256 b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, Mix64IsDeterministicAndSpread) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  // Avalanche smoke test: flipping one input bit flips ~half the output.
  const std::uint64_t d = mix64(0x1234) ^ mix64(0x1235);
  const int bits = __builtin_popcountll(d);
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

// --- stats -------------------------------------------------------------

TEST(StreamingStats, BasicMoments) {
  StreamingStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(StreamingStats, EmptyIsZero) {
  const StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, MergeMatchesSequential) {
  StreamingStats all;
  StreamingStats left;
  StreamingStats right;
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01() * 100;
    all.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a;
  a.add(1.0);
  a.add(3.0);
  StreamingStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Samples, MeanAndStddev) {
  Samples s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-9);
}

TEST(Histogram, ClampsToLastBucket) {
  Histogram h(4);
  h.add(0);
  h.add(3);
  h.add(100);  // clamped into bucket 3
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.max_bucket(), 3u);
}

// --- table -------------------------------------------------------------

TEST(Table, RendersAlignedMarkdown) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22.5);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name  | value   |"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5000"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::to_cell(true), "yes");
  EXPECT_EQ(Table::to_cell(false), "no");
  EXPECT_EQ(Table::to_cell(3.0), "3");
  EXPECT_EQ(Table::to_cell(0.25), "0.2500");
  EXPECT_EQ(Table::to_cell(7), "7");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  // Rendering must not throw or misalign.
  EXPECT_FALSE(t.to_string().empty());
}

// --- cli ----------------------------------------------------------------

TEST(Cli, ParsesAllForms) {
  // Note: "--flag value" binds greedily, so bare boolean flags must be
  // followed by another --flag (or nothing) — hence --flag precedes
  // --gamma here and the positional comes earlier.
  const char* argv[] = {"prog",       "--alpha=3", "--beta", "7",
                        "positional", "--flag",    "--gamma=x"};
  const Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_string("gamma", ""), "x");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, FallbacksApply) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("missing", -5), -5);
  EXPECT_EQ(cli.get_uint("missing", 9), 9u);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 0.5), 0.5);
  EXPECT_FALSE(cli.get_bool("missing", false));
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=false"};
  const Cli cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(Cli, MalformedNumbersAreRejected) {
  // The whole value must parse: a unit suffix, letters, a sign on an
  // unsigned flag or an out-of-range value is an error, never a prefix.
  // "--seed -1" binds "-1" as the value, which must not wrap to 2^64-1.
  const char* argv[] = {"prog",          "--state-cap=4M", "--threads=abc",
                        "--seed",        "-1",             "--ratio=0.5x",
                        "--big=99999999999999999999",      "--depth= 3",
                        "--offset=-7",   "--scale=2.5"};
  const Cli cli(10, argv);
  EXPECT_THROW((void)cli.get_uint("state-cap", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint("threads", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("threads", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("threads", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint("seed", 1), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("ratio", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint("big", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("depth", 0), std::invalid_argument);
  // Well-formed values still parse, signs included where they belong.
  EXPECT_EQ(cli.get_int("seed", 1), -1);
  EXPECT_EQ(cli.get_int("offset", 0), -7);
  EXPECT_DOUBLE_EQ(cli.get_double("offset", 0), -7.0);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 0), 2.5);
}

// --- spin barrier --------------------------------------------------------

TEST(SpinBarrier, SynchronizesAndReuses) {
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        counter.fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier every thread of this round has incremented.
        if (counter.load() < (round + 1) * static_cast<int>(kThreads)) {
          failed.store(true);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(counter.load(), kRounds * static_cast<int>(kThreads));
}

}  // namespace
}  // namespace ff::util
