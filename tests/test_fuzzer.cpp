// Differential and regression tests for the coverage-guided schedule
// fuzzer (sched/fuzzer.hpp).
//
// The differential grid (tests/explore_diff.hpp) is small enough for the
// sequential explorer to enumerate completely, so its violation census is
// ground truth.  The fuzzer — a sampling tool — must rediscover a witness
// for EVERY violation kind the explorer reports in each cell, within a
// seeded budget, and must fabricate nothing in the cells the explorer
// proves correct.  Every witness (as found and as shrunk) is verified by
// strict replay.
#include "sched/fuzzer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "explore_diff.hpp"
#include "fuzz_jobs.hpp"
#include "model/tolerance.hpp"
#include "sched/explorer.hpp"
#include "verify/run.hpp"

namespace ff::sched {
namespace {

using testutil::differential_grid;
using testutil::expect_witness_reproduces;
using testutil::full_space_options;
using testutil::fuzz_job;
using testutil::fuzz_options_of;
using testutil::GridCase;
using testutil::make_world;

TEST(FuzzerDifferential, RediscoversEveryExplorerViolationClass) {
  for (const GridCase& gc : differential_grid()) {
    const SimWorld world = make_world(gc);
    const ExploreOptions eo = full_space_options(gc);
    const ExploreResult truth = explore(world, eo);
    ASSERT_TRUE(truth.complete) << gc.name;

    std::set<ViolationKind> kinds;
    for (const auto& [kind, count] : truth.violations_by_kind) {
      if (count > 0) kinds.insert(kind);
    }

    FuzzOptions fo;
    fo.seed = 0x5eedf00d;
    fo.killed_is_violation = eo.killed_is_violation;
    fo.stop_at_first_violation = false;
    if (kinds.empty()) {
      // Explorer-proven-correct cell: the fuzzer must find nothing.
      fo.budget.max_units = 60'000;
      const FuzzResult run = fuzz(world, fo);
      EXPECT_EQ(run.stats.violations_found, 0u) << gc.name;
      EXPECT_FALSE(run.violation.has_value()) << gc.name;
      EXPECT_FALSE(run.original_violation.has_value()) << gc.name;
      continue;
    }

    // Violating cell: stop once a witness for every explorer-reported
    // kind has been found; the budget is the acceptance bound.
    fo.budget.max_units = 400'000;
    fo.stop_after_kinds = kinds;
    const FuzzResult run = fuzz(world, fo);
    EXPECT_TRUE(run.complete)
        << gc.name << ": fuzzer missed a violation class within budget ("
        << run.stats.total_steps << " steps, " << run.stats.executions
        << " execs)";
    for (const ViolationKind kind : kinds) {
      const auto it = run.first_by_kind.find(kind);
      ASSERT_NE(it, run.first_by_kind.end())
          << gc.name << " kind=" << to_string(kind);
      expect_witness_reproduces(world, it->second,
                                gc.name + "/fuzz/" +
                                    std::string(to_string(kind)));
    }

    // The headline witness: as-found and as-shrunk both replay to the
    // same violation kind, and shrinking never grows the schedule.
    ASSERT_TRUE(run.original_violation.has_value()) << gc.name;
    ASSERT_TRUE(run.violation.has_value()) << gc.name;
    EXPECT_EQ(run.violation->kind, run.original_violation->kind) << gc.name;
    EXPECT_LE(run.violation->schedule.size(),
              run.original_violation->schedule.size())
        << gc.name;
    EXPECT_EQ(classify_schedule(world, run.original_violation->schedule,
                                fo.killed_is_violation),
              run.original_violation->kind)
        << gc.name;
    EXPECT_EQ(classify_schedule(world, run.violation->schedule,
                                fo.killed_is_violation),
              run.violation->kind)
        << gc.name << " (shrunk witness no longer violates)";
    expect_witness_reproduces(world, *run.violation, gc.name + "/shrunk");
  }
}

// ---------------------------------------------------------------------
// Budget truncation: an exhausted budget reports complete = false and
// fabricates no verdict (retry-silent at bounded t is explorer-proven
// correct, so ANY violation here would be fabricated).
// ---------------------------------------------------------------------

GridCase correct_cell() {
  for (const GridCase& gc : differential_grid()) {
    if (gc.name == "retry-silent/silent/t1/n2") return gc;
  }
  ADD_FAILURE() << "grid cell retry-silent/silent/t1/n2 missing";
  return {};
}

TEST(FuzzerBudget, TruncationReportsIncompleteAndFabricatesNothing) {
  const GridCase gc = correct_cell();
  const SimWorld world = make_world(gc);

  FuzzOptions fo;
  fo.seed = 7;
  fo.budget.max_units = 40;  // far too small to finish anything useful
  const FuzzResult run = fuzz(world, fo);

  EXPECT_FALSE(run.complete);
  EXPECT_LE(run.stats.total_steps, 40u);
  EXPECT_EQ(run.stats.violations_found, 0u);
  EXPECT_FALSE(run.violation.has_value());
}

TEST(FuzzerBudget, MaxExecsWithinBudgetReportsComplete) {
  const GridCase gc = correct_cell();
  const SimWorld world = make_world(gc);

  FuzzOptions fo;
  fo.seed = 7;
  fo.budget.max_units = 500'000;
  fo.max_execs = 50;
  const FuzzResult run = fuzz(world, fo);

  EXPECT_TRUE(run.complete);
  EXPECT_EQ(run.stats.executions, 50u);
  EXPECT_EQ(run.stats.violations_found, 0u);
}

TEST(FuzzerBudget, DeadlineTruncationReportsIncomplete) {
  const GridCase gc = correct_cell();
  const SimWorld world = make_world(gc);

  FuzzOptions fo;
  fo.seed = 7;
  fo.budget.max_units = 0;  // unlimited steps...
  fo.budget.max_millis = 1;  // ...but essentially no wall-clock time
  const FuzzResult run = fuzz(world, fo);

  EXPECT_FALSE(run.complete);
  EXPECT_EQ(run.stats.violations_found, 0u);
}

// ---------------------------------------------------------------------
// Seed determinism, mirroring the run_stress / random_walk regression
// tests: same seed + same budget ⇒ identical corpus, coverage set,
// first-violation schedule, and final RNG state.
// ---------------------------------------------------------------------

GridCase violating_cell() {
  for (const GridCase& gc : differential_grid()) {
    if (gc.name == "single-cas/overriding/t1/n3") return gc;
  }
  ADD_FAILURE() << "grid cell single-cas/overriding/t1/n3 missing";
  return {};
}

TEST(FuzzerDeterminism, SameSeedSameBudgetIsBitIdentical) {
  const GridCase gc = violating_cell();
  const SimWorld world = make_world(gc);

  FuzzOptions fo;
  fo.seed = 42;
  fo.budget.max_units = 30'000;
  fo.stop_at_first_violation = false;

  const FuzzResult a = fuzz(world, fo);
  const FuzzResult b = fuzz(world, fo);

  EXPECT_EQ(a.stats.executions, b.stats.executions);
  EXPECT_EQ(a.stats.total_steps, b.stats.total_steps);
  EXPECT_EQ(a.stats.unique_states, b.stats.unique_states);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.violations_by_kind, b.violations_by_kind);
  ASSERT_EQ(a.original_violation.has_value(),
            b.original_violation.has_value());
  if (a.original_violation) {
    EXPECT_EQ(a.original_violation->schedule,
              b.original_violation->schedule);
    EXPECT_EQ(a.violation->schedule, b.violation->schedule);
  }
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(FuzzerDeterminism, FirstViolationScheduleIsSeedStable) {
  const GridCase gc = violating_cell();
  const SimWorld world = make_world(gc);

  FuzzOptions fo;
  fo.seed = 1234;
  fo.budget.max_units = 200'000;
  const FuzzResult a = fuzz(world, fo);
  const FuzzResult b = fuzz(world, fo);

  ASSERT_TRUE(a.original_violation.has_value());
  ASSERT_TRUE(b.original_violation.has_value());
  EXPECT_EQ(a.original_violation->schedule, b.original_violation->schedule);
  EXPECT_EQ(a.stats.first_violation_exec, b.stats.first_violation_exec);
}

// The JSON serialization is syntactically well-formed enough for a naive
// bracket check and contains the headline fields.
TEST(FuzzerJson, SerializesRunState) {
  const GridCase gc = violating_cell();
  const SimWorld world = make_world(gc);

  FuzzOptions fo;
  fo.seed = 5;
  fo.budget.max_units = 50'000;
  const FuzzResult run = fuzz(world, fo);
  const std::string json = run.to_json();

  EXPECT_NE(json.find("\"complete\""), std::string::npos);
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"corpus\""), std::string::npos);
  EXPECT_NE(json.find("\"rng_state\""), std::string::npos);
  std::int64_t depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// ---------------------------------------------------------------------
// Campaign pin.  A fuzz campaign is a pure function of (world,
// FuzzOptions), and the census cache keys a fuzz Report on the job alone:
// the key does not include engine code.  A fuzzer change that moves one
// RNG draw, or changes what enters the corpus or the coverage set, would
// therefore keep serving Reports the old code computed.  Such a change
// must be deliberate: it updates the constants below (FNV-1a 64 of
// FuzzResult::to_json()) AND bumps verify::Cache::kFormatVersion.  Speed
// work on the fuzzer must leave them unchanged.
// ---------------------------------------------------------------------

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct PinnedCampaign {
  std::string name;
  verify::JobSpec spec;
  std::uint64_t hash_seed1;
  std::uint64_t hash_seed1009;
};

std::vector<PinnedCampaign> pinned_campaigns() {
  // Campaigns that keep going past their violations spend the whole
  // budget; their first witness is left unshrunk.
  const auto whole_budget = [](verify::JobSpec spec) {
    spec.stop_at_first_violation = false;
    spec.shrink = false;
    return spec;
  };
  verify::JobSpec staged_data = whole_budget(fuzz_job(
      "staged", {{"f", 1}, {"t", 1}}, model::FaultKind::kDataCorruption, 1, 3));
  verify::JobSpec staged_first = fuzz_job(
      "staged", {{"f", 1}, {"t", 1}}, model::FaultKind::kOverriding, 1, 3);
  staged_first.stop_at_first_violation = true;
  staged_first.shrink = true;
  verify::JobSpec recoverable_cas = whole_budget(
      fuzz_job("recoverable-cas", {}, model::FaultKind::kOverriding, 1, 3));
  recoverable_cas.crash_budget = 1;
  return {
      {"proof-sym", testutil::proof_sym_job(), 0xff2cd256f1b93488ULL,
       0x6948423ba7bbb014ULL},
      {"proof-crash", testutil::proof_crash_job(), 0x5ae216afe4997168ULL,
       0x884b8eda7d000be4ULL},
      {"staged f=1 t=1 n=3 data", staged_data, 0xc824a1881f8b4880ULL,
       0xccf75c15d34d73faULL},
      {"staged f=1 t=1 n=3 overriding, first violation shrunk", staged_first,
       0x907426673c41890fULL, 0x7ef3f28526bf367cULL},
      {"retry-silent silent t=inf n=2",
       whole_budget(fuzz_job("retry-silent", {}, model::FaultKind::kSilent,
                             model::kUnbounded, 2)),
       0x2be24f23cf3216b1ULL, 0x510019681b098f1aULL},
      {"recoverable-cas crashes=1 n=3", recoverable_cas,
       0xbb69688fa814f4f5ULL, 0xda6cc8ce045314acULL},
  };
}

TEST(FuzzerPin, CampaignsHashAsRecorded) {
  for (const PinnedCampaign& pin : pinned_campaigns()) {
    for (const std::uint64_t seed : {1u, 1009u}) {
      verify::JobSpec spec = pin.spec;
      spec.seed = seed;
      spec.fuzz_steps = 100'000;
      const verify::Instance instance = verify::instantiate(spec);
      const FuzzResult run =
          fuzz(instance.world(), fuzz_options_of(instance.spec));
      const std::uint64_t got = fnv1a64(run.to_json());
      EXPECT_EQ(got, seed == 1 ? pin.hash_seed1 : pin.hash_seed1009)
          << pin.name << " seed " << seed << ": got 0x" << std::hex << got;
    }
  }
}

}  // namespace
}  // namespace ff::sched
