// Soundness tests for process-symmetry reduction (sched/reduce.hpp),
// across both DFS explorers.
//
// The contracts under test (DESIGN.md §3d):
//   * Symmetry reduction visits one representative per orbit: the census
//     shrinks (never grows), but every orbit-INVARIANT quantity — agreed
//     values, presence of each violation class, nontermination verdict,
//     completeness — is preserved exactly.
//   * Every witness a reduced run reports is a REAL schedule of the
//     unreduced world: it strict-replays from the initial state.
//   * The canonical representative is unique per orbit: permuting which
//     process holds which role never changes canonical_words.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "legacy/machines.hpp"
#include "explore_diff.hpp"
#include "faults/bank.hpp"
#include "sched/explore_common.hpp"
#include "sched/explorer.hpp"
#include "sched/fuzzer.hpp"
#include "sched/parallel_explorer.hpp"
#include "sched/reduce.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {
namespace {

using testutil::differential_grid;
using testutil::expect_witness_reproduces;
using testutil::full_space_options;
using testutil::GridCase;
using testutil::make_world;

ExploreOptions with_symmetry(const ExploreOptions& base, bool sym) {
  ExploreOptions options = base;
  options.symmetry_reduction = sym;
  return options;
}

// --- Full-grid differential census: sequential explorer -------------------

TEST(ReductionSoundness, SymmetryPreservesOrbitInvariants) {
  for (const GridCase& gc : differential_grid()) {
    const SimWorld world = make_world(gc);
    const ExploreOptions base = full_space_options(gc);
    const auto oracle = explore(world, with_symmetry(base, false));
    const auto reduced = explore(world, with_symmetry(base, true));
    const std::string label = gc.name + "/sym";

    EXPECT_EQ(oracle.complete, reduced.complete) << label;
    EXPECT_LE(reduced.states_visited, oracle.states_visited) << label;
    EXPECT_LE(reduced.terminal_states, oracle.terminal_states) << label;
    EXPECT_EQ(oracle.agreed_values, reduced.agreed_values) << label;
    for (const ViolationKind kind :
         {ViolationKind::kInconsistent, ViolationKind::kInvalid,
          ViolationKind::kStalled, ViolationKind::kNontermination}) {
      EXPECT_EQ(oracle.violations_of(kind) > 0,
                reduced.violations_of(kind) > 0)
          << label << " kind=" << to_string(kind);
    }
    if (reduced.violation) {
      expect_witness_reproduces(world, *reduced.violation, label);
    }
  }
}

// --- Full-grid differential census: parallel explorer ---------------------

TEST(ReductionSoundness, ParallelReducedMatchesSequentialReduced) {
  for (const GridCase& gc : differential_grid()) {
    const SimWorld world = make_world(gc);
    const ExploreOptions base = full_space_options(gc);
    const auto seq = explore(world, with_symmetry(base, true));

    ParallelExploreOptions popts;
    popts.explore = with_symmetry(base, true);
    popts.num_threads = 2;
    const auto par = parallel_explore(world, popts);
    const std::string label = gc.name + "/parallel-reduced";

    EXPECT_EQ(seq.complete, par.complete) << label;
    EXPECT_EQ(seq.states_visited, par.states_visited) << label;
    EXPECT_EQ(seq.terminal_states, par.terminal_states) << label;
    EXPECT_EQ(seq.agreed_values, par.agreed_values) << label;
    for (const ViolationKind kind :
         {ViolationKind::kInconsistent, ViolationKind::kInvalid,
          ViolationKind::kStalled}) {
      EXPECT_EQ(seq.violations_of(kind), par.violations_of(kind))
          << label << " kind=" << to_string(kind);
    }
    EXPECT_EQ(seq.violations_of(ViolationKind::kNontermination) > 0,
              par.violations_of(ViolationKind::kNontermination) > 0)
        << label;
    if (par.violation) {
      expect_witness_reproduces(world, *par.violation, label);
    }
  }
}

// --- Orbit-representative uniqueness ---------------------------------------

SimWorld staged_world(std::vector<std::uint64_t> inputs) {
  const consensus::StagedFactory factory(1, 1);
  SimConfig config;
  config.num_objects = 1;
  config.kind = model::FaultKind::kOverriding;
  config.t = 1;
  return SimWorld(config, factory, std::move(inputs));
}

std::vector<std::uint64_t> canonical_of(const SimWorld& world) {
  StateEncoder encoder;
  EncodedState e;
  encoder.encode(world, e);
  return canonical_words(e);
}

TEST(OrbitCanonicalization, RepresentativeUniquePerOrbit) {
  // Every permutation of the same input multiset is the same orbit and
  // must canonicalize to the same representative words.
  std::vector<std::uint64_t> inputs{1, 2, 3};
  std::sort(inputs.begin(), inputs.end());
  const auto reference = canonical_of(staged_world(inputs));
  std::set<std::vector<std::uint64_t>> raw_encodes;
  do {
    const SimWorld world = staged_world(inputs);
    EXPECT_EQ(canonical_of(world), reference);
    raw_encodes.insert(world.encode());
  } while (std::next_permutation(inputs.begin(), inputs.end()));
  // ...while the raw encodings really were distinct (the collapse is the
  // canonicalization's doing, not a degenerate encoding).
  EXPECT_GT(raw_encodes.size(), 1u);
}

TEST(OrbitCanonicalization, EquivariantUnderPermutedSchedules) {
  // π·(w after s) == (π·w) after π(s): running the permuted schedule on
  // the permuted world lands in the same orbit at every prefix.
  const SimWorld w_id = staged_world({5, 7});
  const SimWorld w_sw = staged_world({7, 5});
  const std::vector<std::uint32_t> pi{1, 0};

  SimWorld a = w_id;
  SimWorld b = w_sw;
  const std::vector<Choice> schedule{{0, false, 0}, {1, false, 0},
                                     {0, true, 0}, {1, false, 0}};
  const std::vector<Choice> permuted = permute_pids(schedule, pi);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    a.apply(schedule[i]);
    b.apply(permuted[i]);
    StateEncoder encoder;
    EncodedState ea;
    EncodedState eb;
    encoder.encode(a, ea);
    encoder.encode(b, eb);
    EXPECT_EQ(canonical_words(ea), canonical_words(eb)) << "prefix " << i;
    EXPECT_EQ(fingerprint_state(ea, true), fingerprint_state(eb, true))
        << "prefix " << i;
  }
}

// --- Fuzzer symmetry toggle -------------------------------------------------

TEST(FuzzerSymmetry, FindsViolationWithAndWithoutCanonicalNovelty) {
  // staged f=1 t=1 at n=3 is faulty; the canonical-coverage novelty
  // signal must not change whether the fuzzer can surface a witness.
  const consensus::StagedFactory factory(1, 1);
  SimConfig config;
  config.num_objects = 1;
  config.kind = model::FaultKind::kOverriding;
  config.t = 1;
  const SimWorld world(config, factory, {1, 2, 3});
  ASSERT_TRUE(world.processes_symmetric());

  for (const bool sym : {false, true}) {
    FuzzOptions options;
    options.seed = 7;
    options.budget.max_units = 2'000'000;
    options.symmetry_reduction = sym;
    const auto result = fuzz(world, options);
    ASSERT_TRUE(result.violation.has_value()) << "sym=" << sym;
    expect_witness_reproduces(world, *result.violation,
                              sym ? "fuzz/sym" : "fuzz/exact");
  }
}

// --- Fault-bank usage profiles ----------------------------------------------

TEST(FaultBankProfile, DynamicDesignationIsSlotAnonymous) {
  // With dynamic designation, which object joins the faulty set is an
  // arrival-order artifact: permuted consumption histories must yield
  // equal sorted profiles.
  faults::FaultyCasBank::Options options;
  options.objects = 3;
  options.f = 2;
  options.t = 3;

  faults::FaultyCasBank a(options);
  ASSERT_TRUE(a.budget()->try_consume(0));
  ASSERT_TRUE(a.budget()->try_consume(0));
  ASSERT_TRUE(a.budget()->try_consume(2));

  faults::FaultyCasBank b(options);
  ASSERT_TRUE(b.budget()->try_consume(1));
  ASSERT_TRUE(b.budget()->try_consume(1));
  ASSERT_TRUE(b.budget()->try_consume(0));

  EXPECT_EQ(a.usage_profile(), b.usage_profile());

  // A genuinely different usage multiset must be distinguishable.
  faults::FaultyCasBank c(options);
  ASSERT_TRUE(c.budget()->try_consume(1));
  EXPECT_NE(a.usage_profile(), c.usage_profile());
}

TEST(FaultBankProfile, ClampsAtBudgetAndSurvivesReset) {
  faults::FaultyCasBank::Options options;
  options.objects = 2;
  options.f = 1;
  options.t = 1;
  faults::FaultyCasBank bank(options);
  ASSERT_TRUE(bank.budget()->try_consume(0));
  EXPECT_FALSE(bank.budget()->try_consume(0));  // t exhausted
  const auto used = bank.usage_profile();
  EXPECT_EQ(used.back(), (std::uint64_t{1} << 32) | 1u);
  bank.reset();
  const auto fresh = bank.usage_profile();
  EXPECT_EQ(fresh, std::vector<std::uint64_t>(2, 0));
}

}  // namespace
}  // namespace ff::sched
