// Self-test of the benchmark's statistics, output checks, workloads and
// span arithmetic.  Build and run:
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   ctest --test-dir .bench_build/perfbench
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "checks.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ff::verify::Engine;
using ff::verify::JobSpec;
using ff::verify::Report;

// Expected values from Python: statistics.quantiles(values, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  const auto q = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(q[0], 1.5);
  EXPECT_DOUBLE_EQ(q[1], 3.0);
  EXPECT_DOUBLE_EQ(q[2], 4.5);

  const auto ten = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(ten[0], 2.75);
  EXPECT_DOUBLE_EQ(ten[1], 5.5);
  EXPECT_DOUBLE_EQ(ten[2], 8.25);

  const auto two = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(two[0], 0.75);
  EXPECT_DOUBLE_EQ(two[1], 1.5);
  EXPECT_DOUBLE_EQ(two[2], 2.25);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3}), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW((void)quartiles({}), std::invalid_argument);
}

Report clean(std::uint64_t states, std::uint64_t terminal,
             std::set<std::uint64_t> agreed) {
  Report r;
  r.complete = true;
  r.states_visited = states;
  r.terminal_states = terminal;
  r.agreed_values = std::move(agreed);
  return r;
}

Report violating() {
  Report r;
  r.violations_found = 1;
  r.violations_by_kind[ff::sched::ViolationKind::kInconsistent] = 1;
  r.violation = ff::sched::Violation{ff::sched::ViolationKind::kInconsistent,
                                     {}, "two decisions"};
  return r;
}

JobSpec spec_for(Engine e) {
  JobSpec spec;
  spec.engine = e;
  spec.max_states = 100;
  spec.fuzz_steps = 1000;
  return spec;
}

TEST(Checks, ClassifiesEveryOutcome) {
  EXPECT_EQ(classify(spec_for(Engine::kDfs), violating()), Outcome::kViolation);
  EXPECT_EQ(classify(spec_for(Engine::kDfs), clean(5, 1, {1})), Outcome::kClean);

  Report capped;
  capped.states_visited = 100;
  EXPECT_EQ(classify(spec_for(Engine::kFrontier), capped), Outcome::kCapHit);
  capped.states_visited = 99;
  EXPECT_EQ(classify(spec_for(Engine::kFrontier), capped), Outcome::kNoAnswer);

  Report fuzz;
  fuzz.fuzz = ff::verify::FuzzSummary{};
  fuzz.fuzz->total_steps = 1000;
  EXPECT_EQ(classify(spec_for(Engine::kFuzz), fuzz), Outcome::kCapHit);
  fuzz.fuzz->total_steps = 10;
  EXPECT_EQ(classify(spec_for(Engine::kFuzz), fuzz), Outcome::kNoAnswer);
}

TEST(Checks, CensusCheckerNamesEachDifference) {
  const Census expected{10, 3, {1, 2}};
  EXPECT_EQ(census_mismatch(clean(10, 3, {1, 2}), expected), "");
  EXPECT_NE(census_mismatch(clean(11, 3, {1, 2}), expected).find("states 11"),
            std::string::npos);
  EXPECT_NE(census_mismatch(clean(10, 4, {1, 2}), expected).find("terminal 4"),
            std::string::npos);
  EXPECT_NE(census_mismatch(clean(10, 3, {1}), expected).find("agreed"),
            std::string::npos);
  Report partial = clean(10, 3, {1, 2});
  partial.complete = false;
  EXPECT_NE(census_mismatch(partial, expected).find("incomplete"),
            std::string::npos);
}

TEST(Checks, JudgesAgainstTheProofCensus) {
  const Census expected{10, 3, {1, 2}};
  const Report dfs = clean(10, 3, {1, 2});
  EXPECT_FALSE(judge(spec_for(Engine::kDfs), dfs, nullptr, expected).failed);
  const Judgement off =
      judge(spec_for(Engine::kFrontier), clean(9, 3, {1, 2}), &dfs, expected);
  EXPECT_TRUE(off.failed);
  EXPECT_TRUE(off.wrong);

  Report fuzz_cap;
  fuzz_cap.fuzz = ff::verify::FuzzSummary{};
  fuzz_cap.fuzz->total_steps = 1000;
  EXPECT_FALSE(judge(spec_for(Engine::kFuzz), fuzz_cap, &dfs, expected).failed);
  EXPECT_TRUE(judge(spec_for(Engine::kFuzz), violating(), &dfs, expected).wrong);
}

TEST(Checks, JudgesAgainstTheDfsVerdict) {
  const Report dfs_violation = violating();
  const Report dfs_clean = clean(10, 3, {1});

  // Gave up without a reason: failed, but not a wrong answer.
  Report partial;
  const Judgement gave_up =
      judge(spec_for(Engine::kFrontier), partial, &dfs_violation, std::nullopt);
  EXPECT_TRUE(gave_up.failed);
  EXPECT_FALSE(gave_up.wrong);

  EXPECT_TRUE(judge(spec_for(Engine::kFrontier), dfs_clean, &dfs_violation,
                    std::nullopt).wrong);
  EXPECT_TRUE(judge(spec_for(Engine::kFuzz), violating(), &dfs_clean,
                    std::nullopt).wrong);
  EXPECT_TRUE(judge(spec_for(Engine::kFrontier), clean(11, 3, {1}), &dfs_clean,
                    std::nullopt).wrong);
  EXPECT_FALSE(judge(spec_for(Engine::kFrontier), violating(), &dfs_violation,
                     std::nullopt).failed);

  // A fuzz campaign that spends its budget without finding the DFS
  // violation hit its cap; that is an answer, not a failure.
  Report missed;
  missed.fuzz = ff::verify::FuzzSummary{};
  missed.fuzz->total_steps = 1000;
  EXPECT_FALSE(judge(spec_for(Engine::kFuzz), missed, &dfs_violation,
                     std::nullopt).failed);
}

TEST(Checks, WarmAnswerMustBeAByteIdenticalHit) {
  const Judgement ok_cold;
  const std::string cold_json = clean(10, 3, {1}).to_json();
  EXPECT_FALSE(judge_warm(ok_cold, cold_json, cold_json, true, "").failed);

  const Judgement miss = judge_warm(ok_cold, cold_json, cold_json, false, "");
  EXPECT_TRUE(miss.failed);
  EXPECT_TRUE(miss.wrong);
  const Judgement differs =
      judge_warm(ok_cold, cold_json, clean(11, 3, {1}).to_json(), true, "");
  EXPECT_TRUE(differs.failed);
  EXPECT_TRUE(differs.wrong);

  // A warm run that throws fails, though its cold answer was fine.
  const Judgement threw =
      judge_warm(ok_cold, cold_json, std::nullopt, false, "boom");
  EXPECT_TRUE(threw.failed);
  EXPECT_TRUE(threw.wrong);
  EXPECT_NE(threw.why.find("boom"), std::string::npos);

  // The cold run threw, so nothing was cached: the cold verdict stands.
  Judgement cold_threw;
  cold_threw.failed = true;
  cold_threw.why = "threw out_of_range";
  const Judgement again = judge_warm(cold_threw, "", std::nullopt, false, "x");
  EXPECT_TRUE(again.failed);
  EXPECT_FALSE(again.wrong);
  EXPECT_EQ(again.why, cold_threw.why);
}

TEST(Workloads, RegistrySweepCoversTheRegistryGrid) {
  const Workload w = make_workload("registry-sweep", 7);
  ASSERT_EQ(w.jobs.size(), 120u);
  std::set<std::string> labels;
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    labels.insert(w.jobs[j].label);
    for (const Engine e : kEngines) {
      const JobSpec spec = engine_spec(w, j, e);
      EXPECT_NO_THROW(spec.validate()) << w.jobs[j].label;
      if (e == Engine::kFuzz) {
        EXPECT_EQ(spec.seed, 7u);
        EXPECT_EQ(spec.fuzz_steps, 20'000u);
      }
      if (e == Engine::kFrontier) {
        EXPECT_EQ(spec.threads, kFrontierThreads);
      }
    }
  }
  EXPECT_EQ(labels.size(), 120u);
}

TEST(Workloads, ProofsCarryTheirCensus) {
  for (const char* name : {"proof-sym", "proof-crash"}) {
    const Workload w = make_workload(name, 1);
    ASSERT_EQ(w.jobs.size(), 1u);
    EXPECT_TRUE(w.jobs[0].census.has_value());
    EXPECT_EQ(w.fuzz_steps, 500'000u);
  }
  EXPECT_THROW((void)make_workload("nope", 1), std::invalid_argument);
}

TEST(Trace, SelfTimeIsDurationMinusChildren) {
  Tracer t;
  {
    SpanScope root(&t, "root");
    {
      SpanScope child(&t, "child", 3);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  { SpanScope other(&t, "other"); }
  std::size_t roots = 0;
  const auto self = t.self_seconds("root", &roots);
  EXPECT_EQ(roots, 1u);
  ASSERT_EQ(self.size(), 2u);
  const auto& spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].job, 3);
  const double root_ns = static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  EXPECT_NEAR((self.at("root") + self.at("child")) * 1e9, root_ns, 1.0);
  EXPECT_GE(self.at("child"), 0.002);
  EXPECT_GE(self.at("root"), 0.001);
}

}  // namespace
}  // namespace perfbench
