// Theorem-by-theorem validation via exhaustive model checking.
//
// Each test here is a machine-checked instance of a paper claim: the
// explorer covers EVERY interleaving and EVERY legal fault placement of
// the configuration, so "complete && no violation" is a proof for that
// parameter cell and "violation found" is a concrete counterexample
// (the witness schedule is replayable).
#include <gtest/gtest.h>

#include <vector>

#include "legacy/machines.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff {
namespace {

using consensus::FPlusOneFactory;
using consensus::RetrySilentFactory;
using consensus::SingleCasFactory;
using consensus::StagedFactory;
using model::FaultKind;
using model::kUnbounded;
using sched::ExploreResult;
using sched::SimConfig;
using sched::SimWorld;
using sched::ViolationKind;

std::vector<std::uint64_t> inputs(std::uint32_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = i + 1;
  return v;
}

SimConfig cfg(std::uint32_t objects, FaultKind kind, std::uint32_t t,
              std::vector<bool> faulty = {}) {
  SimConfig c;
  c.num_objects = objects;
  c.kind = kind;
  c.t = t;
  c.faulty = std::move(faulty);
  return c;
}

ExploreResult explore_all(const SimConfig& config,
                          const sched::MachineFactory& factory,
                          std::uint32_t n,
                          std::uint64_t max_states = 2'000'000) {
  SimWorld world(config, factory, inputs(n));
  sched::ExploreOptions options;
  options.max_states = max_states;
  return sched::explore(world, options);
}

// --------------------------------------------------------------------------
// Theorem 4: a single CAS object with unboundedly many overriding faults
// implements consensus for two processes ((f,∞,2)-tolerance).
// --------------------------------------------------------------------------

TEST(Theorem4, TwoProcessesUnboundedOverridingFaults) {
  const auto result = explore_all(
      cfg(1, FaultKind::kOverriding, kUnbounded), SingleCasFactory{}, 2);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_GE(result.terminal_states, 2u);
}

TEST(Theorem4, BoundaryIsTight_ThreeProcessesBreak) {
  // One overriding fault already suffices to break the protocol at n=3:
  // this is the consensus-number collapse the paper highlights.
  const auto result =
      explore_all(cfg(1, FaultKind::kOverriding, 1), SingleCasFactory{}, 3);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, ViolationKind::kInconsistent);
}

TEST(Theorem4, HerlihyBaselineFaultFreeAnyN) {
  for (std::uint32_t n = 2; n <= 5; ++n) {
    const auto result =
        explore_all(cfg(1, FaultKind::kOverriding, 0), SingleCasFactory{}, n);
    EXPECT_TRUE(result.complete) << "n=" << n;
    EXPECT_FALSE(result.violation.has_value()) << "n=" << n;
  }
}

// --------------------------------------------------------------------------
// Theorem 5: f+1 CAS objects, at most f faulty with unbounded overriding
// faults, implement consensus for any number of processes.  The explorer
// sweeps every designation of which f objects are the faulty ones.
// --------------------------------------------------------------------------

class Theorem5 : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Theorem5, AllDesignationsAllSchedules) {
  const auto f = static_cast<std::uint32_t>(std::get<0>(GetParam()));
  const auto n = static_cast<std::uint32_t>(std::get<1>(GetParam()));
  const std::uint32_t k = f + 1;
  const FPlusOneFactory factory(k);
  // Every way to pick f faulty objects out of f+1 = every way to leave
  // one object correct.
  for (std::uint32_t correct = 0; correct < k; ++correct) {
    std::vector<bool> faulty(k, true);
    faulty[correct] = false;
    const auto result = explore_all(
        cfg(k, FaultKind::kOverriding, kUnbounded, faulty), factory, n);
    EXPECT_TRUE(result.complete) << "f=" << f << " n=" << n
                                 << " correct=" << correct;
    EXPECT_FALSE(result.violation.has_value())
        << "f=" << f << " n=" << n << " correct=" << correct << ": "
        << result.violation->detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem5,
                         ::testing::Values(std::tuple{1, 2}, std::tuple{1, 3},
                                           std::tuple{1, 4}, std::tuple{2, 2},
                                           std::tuple{2, 3},
                                           std::tuple{2, 4}));

// --------------------------------------------------------------------------
// Theorem 6: f CAS objects, ALL possibly faulty with at most t overriding
// faults each, implement consensus for up to f+1 processes.
// --------------------------------------------------------------------------

class Theorem6 : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Theorem6, AllFaultyObjectsWithinBounds) {
  const auto f = static_cast<std::uint32_t>(std::get<0>(GetParam()));
  const auto t = static_cast<std::uint32_t>(std::get<1>(GetParam()));
  const std::uint32_t n = f + 1;
  const auto result =
      explore_all(cfg(f, FaultKind::kOverriding, t), StagedFactory(f, t), n);
  EXPECT_TRUE(result.complete) << "f=" << f << " t=" << t;
  EXPECT_FALSE(result.violation.has_value())
      << "f=" << f << " t=" << t << ": " << result.violation->detail;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem6,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{1, 2},
                                           std::tuple{1, 3},
                                           std::tuple{1, 4}));

// f=2,t=1,n=3 is a ~5M-state proof (~15 s); kept as one dedicated test.
TEST(Theorem6Deep, TwoObjectsOneFaultEachThreeProcesses) {
  const auto result = explore_all(cfg(2, FaultKind::kOverriding, 1),
                                  StagedFactory(2, 1), 3, 6'000'000);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.violation.has_value());
}

// --------------------------------------------------------------------------
// Theorem 18: with unbounded faults per object and n > 2, f faulty CAS
// objects cannot implement consensus.  The explorer finds the violating
// execution for the natural candidates.
// --------------------------------------------------------------------------

TEST(Theorem18, HerlihyOnOneFaultyObjectThreeProcs) {
  const auto result = explore_all(
      cfg(1, FaultKind::kOverriding, kUnbounded), SingleCasFactory{}, 3);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, ViolationKind::kInconsistent);
}

TEST(Theorem18, FPlusOneCandidateWithOnlyFObjects) {
  // Run the Figure 2 protocol with f objects instead of f+1 — the
  // configuration the theorem proves impossible.
  for (std::uint32_t f = 1; f <= 3; ++f) {
    const auto result = explore_all(
        cfg(f, FaultKind::kOverriding, kUnbounded), FPlusOneFactory(f), 3);
    ASSERT_TRUE(result.violation.has_value()) << "f=" << f;
    EXPECT_EQ(result.violation->kind, ViolationKind::kInconsistent)
        << "f=" << f;
  }
}

TEST(Theorem18, ReducedModelSingleFaultyProcessSuffices) {
  // The proof's reduced model: only p_0's operations fault.  A violation
  // must still exist.
  SimConfig config = cfg(1, FaultKind::kOverriding, kUnbounded);
  config.faulting_processes = {0};
  const auto result = explore_all(config, SingleCasFactory{}, 3);
  ASSERT_TRUE(result.violation.has_value());
  // Every fault in the witness schedule was committed by p0.
  for (const auto& choice : result.violation->schedule) {
    if (choice.fault) {
      EXPECT_EQ(choice.pid, 0u);
    }
  }
}

TEST(Theorem18, StagedCandidateAlsoBreaksWithUnboundedFaults) {
  // The staged protocol is only (f,t,f+1)-tolerant for bounded t; with
  // unbounded faults on its f objects and n=3 > 2 processes it must fail
  // somehow — by disagreement or by livelock.
  const auto result = explore_all(
      cfg(1, FaultKind::kOverriding, kUnbounded), StagedFactory(1, 1), 3);
  ASSERT_TRUE(result.violation.has_value());
}

// --------------------------------------------------------------------------
// Theorem 19: with bounded faults (even t = 1) and n = f+2 processes,
// f CAS objects are not enough.
// --------------------------------------------------------------------------

TEST(Theorem19, StagedProtocolBreaksAtFPlusTwoProcesses) {
  for (std::uint32_t f = 1; f <= 2; ++f) {
    const auto result = explore_all(cfg(f, FaultKind::kOverriding, 1),
                                    StagedFactory(f, 1), f + 2);
    ASSERT_TRUE(result.violation.has_value()) << "f=" << f;
    EXPECT_EQ(result.violation->kind, ViolationKind::kInconsistent)
        << "f=" << f;
  }
}

TEST(Theorem19, WitnessScheduleReplays) {
  SimWorld world(cfg(1, FaultKind::kOverriding, 1), StagedFactory(1, 1),
                 inputs(3));
  const auto result = sched::explore(world);
  ASSERT_TRUE(result.violation.has_value());
  const SimWorld replayed = sched::replay(world, result.violation->schedule);
  EXPECT_TRUE(replayed.terminal());
  std::set<std::uint64_t> distinct;
  for (const auto& d : replayed.decisions()) {
    if (d) distinct.insert(*d);
  }
  EXPECT_GE(distinct.size(), 2u);
  // At most one manifested fault on the single object (t = 1 bound).
  EXPECT_LE(replayed.faults_used(0), 1u);
}

// --------------------------------------------------------------------------
// §3.4: the other fault kinds behave as classified.
// --------------------------------------------------------------------------

TEST(OtherFaults, SilentBreaksPlainHerlihyEvenForTwoProcs) {
  // Contrast with Theorem 4: ONE silent fault already defeats Figure 1 at
  // n=2 (a process believes its dropped write succeeded).
  const auto result =
      explore_all(cfg(1, FaultKind::kSilent, 1), SingleCasFactory{}, 2);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, ViolationKind::kInconsistent);
}

TEST(OtherFaults, RetrySilentToleratesBoundedSilentFaults) {
  for (std::uint32_t t = 1; t <= 3; ++t) {
    for (std::uint32_t n = 2; n <= 3; ++n) {
      const auto result = explore_all(cfg(1, FaultKind::kSilent, t),
                                      RetrySilentFactory{}, n);
      EXPECT_TRUE(result.complete) << "t=" << t << " n=" << n;
      EXPECT_FALSE(result.violation.has_value()) << "t=" << t << " n=" << n;
    }
  }
}

TEST(OtherFaults, UnboundedSilentFaultsPreventTermination) {
  // §3.4: "when the total number of faults is unbounded, one can
  // construct an execution in which no process ever updates the CAS
  // object and the protocol never terminates."
  const auto result = explore_all(cfg(1, FaultKind::kSilent, kUnbounded),
                                  RetrySilentFactory{}, 2);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, ViolationKind::kNontermination);
}

TEST(OtherFaults, InvisibleFaultBreaksHerlihyAtTwoProcs) {
  const auto result =
      explore_all(cfg(1, FaultKind::kInvisible, 1), SingleCasFactory{}, 2);
  ASSERT_TRUE(result.violation.has_value());
}

TEST(OtherFaults, ArbitraryFaultBreaksHerlihyAtTwoProcs) {
  const auto result =
      explore_all(cfg(1, FaultKind::kArbitrary, 1), SingleCasFactory{}, 2);
  ASSERT_TRUE(result.violation.has_value());
}

TEST(OtherFaults, NonresponsiveFaultStallsAProcess) {
  sched::ExploreOptions options;
  options.killed_is_violation = true;
  SimWorld world(cfg(1, FaultKind::kNonresponsive, 1), SingleCasFactory{},
                 inputs(2));
  const auto result = sched::explore(world, options);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, ViolationKind::kStalled);
}

// --------------------------------------------------------------------------
// §4 intro: functional faults beat the data-fault lower bound — the staged
// protocol survives bounded OVERRIDING faults on ALL its objects (shown in
// Theorem6 above), while the analogous DATA faults defeat it.
// --------------------------------------------------------------------------

TEST(FunctionalVsData, DataFaultsDefeatTheAllFaultyConfiguration) {
  const SimConfig config = cfg(1, FaultKind::kDataCorruption, 1);
  SimWorld world(config, StagedFactory(1, 1), inputs(2));
  const auto result = sched::explore(world);
  ASSERT_TRUE(result.violation.has_value());
}

TEST(FunctionalVsData, SameBudgetOfOverridingFaultsIsTolerated) {
  // The exact same (f=1, t=1, n=2) budget with overriding functional
  // faults is fully tolerated — the separation in one pair of tests.
  const auto result = explore_all(cfg(1, FaultKind::kOverriding, 1),
                                  StagedFactory(1, 1), 2);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.violation.has_value());
}

}  // namespace
}  // namespace ff
