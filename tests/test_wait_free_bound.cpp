// Machine-checked wait-freedom bounds: with ExploreOptions::
// wait_free_bound both exhaustive engines return the longest execution
// (worst-case total steps over ALL schedules and fault placements) from
// their own census search — the DFS in post-order, the frontier from its
// cycle scan's peel rounds.  Hand-built configurations with known
// bounds, the Report end to end through verify::execute, and a registry
// differential between the two engines.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "legacy/machines.hpp"
#include "proto/registry.hpp"
#include "sched/explorer.hpp"
#include "sched/frontier_explorer.hpp"
#include "verify/run.hpp"

namespace ff {
namespace {

using consensus::FPlusOneFactory;
using consensus::RetrySilentFactory;
using consensus::SingleCasFactory;
using consensus::StagedFactory;
using model::FaultKind;
using model::kUnbounded;
using sched::SimConfig;
using sched::SimWorld;

std::vector<std::uint64_t> inputs(std::uint32_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

SimConfig cfg(std::uint32_t objects, FaultKind kind, std::uint32_t t) {
  SimConfig c;
  c.num_objects = objects;
  c.kind = kind;
  c.t = t;
  return c;
}

struct EngineRun {
  std::string engine;
  sched::ExploreResult result;
};

/// The same configuration on the DFS and on the frontier at 1 and at 4
/// threads, each asked for the bound.  The whole space is explored
/// (no stop at a violation), so a run is complete unless a cap hits.
std::vector<EngineRun> run_engines(const SimConfig& config,
                                   const sched::MachineFactory& factory,
                                   std::uint32_t n,
                                   sched::ExploreOptions options = {}) {
  options.stop_at_first_violation = false;
  options.wait_free_bound = true;
  std::vector<EngineRun> runs;
  runs.push_back(
      {"dfs", sched::explore(SimWorld(config, factory, inputs(n)), options)});
  for (const std::uint32_t threads : {1u, 4u}) {
    sched::FrontierExploreOptions frontier;
    frontier.explore = options;
    frontier.num_threads = threads;
    runs.push_back({"frontier/" + std::to_string(threads),
                    sched::frontier_explore(config, factory, inputs(n),
                                            frontier)
                        .explore});
  }
  return runs;
}

TEST(LongestExecution, HerlihyIsExactlyNSteps) {
  // Every process takes exactly one CAS step regardless of schedule and
  // faults: the longest (= only) execution length is n.
  const SingleCasFactory factory;
  for (std::uint32_t n = 1; n <= 4; ++n) {
    for (const EngineRun& run :
         run_engines(cfg(1, FaultKind::kOverriding, kUnbounded), factory,
                     n)) {
      EXPECT_TRUE(run.result.complete) << run.engine << " n=" << n;
      EXPECT_EQ(run.result.wait_free_bound, n) << run.engine << " n=" << n;
    }
  }
}

TEST(LongestExecution, FPlusOneIsExactlyNTimesK) {
  // Figure 2: each of n processes executes exactly k CASes.
  for (const auto& [k, n] : {std::pair{2u, 2u}, {2u, 3u}, {3u, 3u}}) {
    const FPlusOneFactory factory(k);
    for (const EngineRun& run : run_engines(
             cfg(k, FaultKind::kOverriding, kUnbounded), factory, n)) {
      EXPECT_TRUE(run.result.complete) << run.engine;
      EXPECT_EQ(run.result.wait_free_bound, k * n)
          << run.engine << " k=" << k << " n=" << n;
    }
  }
}

TEST(LongestExecution, StagedWorstCaseIsFiniteAndAboveSolo) {
  // The staged protocol's retry loops make the bound schedule-dependent;
  // the checker certifies it is finite (wait-freedom!) and locates it
  // between the solo cost and a crude upper bound.
  const StagedFactory factory(1, 1);
  const std::uint64_t solo = 1 * 5 + 2;  // f·maxStage + 2
  for (const EngineRun& run :
       run_engines(cfg(1, FaultKind::kOverriding, 1), factory, 2)) {
    ASSERT_TRUE(run.result.complete) << run.engine;
    ASSERT_TRUE(run.result.wait_free_bound.has_value()) << run.engine;
    EXPECT_GE(*run.result.wait_free_bound, solo) << run.engine;
    EXPECT_LE(*run.result.wait_free_bound, 4 * solo) << run.engine;
  }
}

TEST(LongestExecution, UnboundedSilentRetryIsDetectedAsUnbounded) {
  const RetrySilentFactory factory;
  for (const EngineRun& run :
       run_engines(cfg(1, FaultKind::kSilent, kUnbounded), factory, 2)) {
    EXPECT_TRUE(run.result.complete) << run.engine;
    EXPECT_GT(run.result.violations_of(sched::ViolationKind::kNontermination),
              0u)
        << run.engine;
    EXPECT_FALSE(run.result.wait_free_bound.has_value()) << run.engine;
  }
}

TEST(LongestExecution, BoundedSilentRetryHasFiniteBound) {
  const RetrySilentFactory factory;
  for (const EngineRun& run :
       run_engines(cfg(1, FaultKind::kSilent, 2), factory, 2)) {
    EXPECT_TRUE(run.result.complete) << run.engine;
    ASSERT_TRUE(run.result.wait_free_bound.has_value()) << run.engine;
    // Each silent fault costs the victim at most 2 extra steps; 2 procs ×
    // (1 attempt + 1 confirm) + recovery is comfortably under 12.
    EXPECT_GE(*run.result.wait_free_bound, 4u) << run.engine;
    EXPECT_LE(*run.result.wait_free_bound, 12u) << run.engine;
  }
}

TEST(LongestExecution, RespectsStateCap) {
  const StagedFactory factory(2, 2);
  sched::ExploreOptions options;
  options.max_states = 100;
  for (const EngineRun& run :
       run_engines(cfg(2, FaultKind::kOverriding, 2), factory, 3, options)) {
    EXPECT_FALSE(run.result.complete) << run.engine;
    EXPECT_FALSE(run.result.wait_free_bound.has_value()) << run.engine;
  }
}

TEST(LongestExecution, OnlyComputedWhenAskedFor) {
  const StagedFactory factory(1, 1);
  const SimConfig config = cfg(1, FaultKind::kOverriding, 1);
  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  const auto dfs = [&] {
    return sched::explore(SimWorld(config, factory, inputs(2)), options);
  };
  const auto frontier = [&] {
    sched::FrontierExploreOptions fo;
    fo.explore = options;
    fo.num_threads = 1;
    return sched::frontier_explore(config, factory, inputs(2), fo).explore;
  };
  const sched::ExploreResult dfs_off = dfs();
  const sched::ExploreResult frontier_off = frontier();
  ASSERT_TRUE(dfs_off.complete);
  ASSERT_TRUE(frontier_off.complete);
  EXPECT_FALSE(dfs_off.wait_free_bound.has_value());
  EXPECT_FALSE(frontier_off.wait_free_bound.has_value());

  options.wait_free_bound = true;
  const sched::ExploreResult dfs_on = dfs();
  const sched::ExploreResult frontier_on = frontier();
  EXPECT_EQ(dfs_on.wait_free_bound, 16u);
  EXPECT_EQ(frontier_on.wait_free_bound, 16u);
  // The DFS's bound costs one 4-byte distance per state; the frontier's
  // costs nothing.
  const std::uint64_t per_state = dfs_on.states_visited * 4;
  EXPECT_GE(dfs_on.peak_bytes - dfs_off.peak_bytes, per_state);
  EXPECT_LE(dfs_on.peak_bytes - dfs_off.peak_bytes, 2 * per_state);
  EXPECT_EQ(frontier_on.peak_bytes, frontier_off.peak_bytes);
}

// ---------------------------------------------------------------------------
// The Report end to end: verify::execute with JobSpec::wait_free_bound,
// on dfs and on the frontier at 1 and 4 threads.  Every value was read
// from the separate longest-path DFS these engines replace.
// ---------------------------------------------------------------------------

verify::JobSpec job(std::string protocol, std::uint32_t f, std::uint32_t t,
                    std::uint32_t n) {
  verify::JobSpec spec;
  spec.protocol = std::move(protocol);
  spec.params = {{"f", f}, {"t", t}};
  spec.t = t;
  spec.processes = n;
  spec.wait_free_bound = true;
  return spec;
}

struct PinnedBound {
  std::string name;
  verify::JobSpec spec;
  std::optional<std::uint64_t> bound;
};

void expect_report_bound(const PinnedBound& pin) {
  for (const auto& [engine, threads] :
       {std::pair{verify::Engine::kDfs, 1u},
        {verify::Engine::kFrontier, 1u}, {verify::Engine::kFrontier, 4u}}) {
    verify::JobSpec spec = pin.spec;
    spec.engine = engine;
    spec.threads = threads;
    const verify::Report report = verify::execute(verify::instantiate(spec));
    EXPECT_EQ(report.wait_free_bound, pin.bound)
        << pin.name << " on " << verify::to_string(engine) << "/" << threads;
  }
}

TEST(WaitFreeBoundPin, SmallJobsAsRecorded) {
  std::vector<PinnedBound> pins;
  pins.push_back({"staged f=1 t=1 n=2", job("staged", 1, 1, 2), 16});
  pins.push_back({"staged f=1 t=2 n=2", job("staged", 1, 2, 2), 27});
  {
    verify::JobSpec spec = job("recoverable-staged", 1, 1, 2);
    spec.crash_budget = 2;
    pins.push_back({"recoverable-staged f=1 t=1 n=2 crashes=2", spec, 20});
  }
  {
    verify::JobSpec spec = job("retry-silent", 1, 2, 2);
    spec.kind = FaultKind::kSilent;
    pins.push_back({"retry-silent silent t=2 n=2", spec, 7});
  }
  {
    verify::JobSpec spec = job("single-cas", 1, 1, 3);
    spec.kind = FaultKind::kNone;
    pins.push_back({"single-cas none n=3", spec, 3});
  }
  {
    // Some execution never ends: a nontermination violation, no bound.
    verify::JobSpec spec = job("retry-silent", 1, 1, 2);
    spec.kind = FaultKind::kSilent;
    spec.t = kUnbounded;
    pins.push_back({"retry-silent silent t=inf n=2", spec, std::nullopt});
  }
  {
    // A capped run has not seen every execution (361 states uncapped).
    verify::JobSpec spec = job("staged", 1, 1, 2);
    spec.max_states = 100;
    pins.push_back({"staged f=1 t=1 n=2 capped", spec, std::nullopt});
  }
  for (const PinnedBound& pin : pins) expect_report_bound(pin);
}

// The two benchmark proofs (perfbench's proof-sym and proof-crash jobs).
TEST(WaitFreeBoundPin, ProofSymAsRecorded) {
  verify::JobSpec spec = job("staged", 2, 1, 3);
  spec.symmetry_reduction = true;
  expect_report_bound({"proof-sym", spec, 84});
}

TEST(WaitFreeBoundPin, ProofCrashAsRecorded) {
  verify::JobSpec spec = job("recoverable-staged", 2, 1, 2);
  spec.crash_budget = 3;
  spec.symmetry_reduction = false;
  expect_report_bound({"proof-crash", spec, 63});
}

// ---------------------------------------------------------------------------
// Registry differential: every simulable protocol × fault kind ×
// n ∈ {2, 3} × t ∈ {1, ∞} × crash budget ∈ {0, 1} × symmetry on/off,
// capped at 50k states.  On every job both engines complete, the DFS and
// the frontier return the same bound, and a bound exists iff the state
// graph has no cycle.  Only data corruption has adversary steps, so only
// there can a cycle pass without a nontermination violation.
// ---------------------------------------------------------------------------

std::vector<std::string> simulable_protocols() {
  std::vector<std::string> names;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (info.simulable) names.push_back(info.name);
  }
  return names;
}

class BoundDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(BoundDifferential, DfsAndFrontierAgree) {
  constexpr FaultKind kKinds[] = {
      FaultKind::kNone,      FaultKind::kOverriding,
      FaultKind::kSilent,    FaultKind::kInvisible,
      FaultKind::kArbitrary, FaultKind::kNonresponsive,
      FaultKind::kDataCorruption};
  std::uint64_t compared = 0, bounded = 0;
  for (const FaultKind kind : kKinds) {
    for (const std::uint32_t n : {2u, 3u}) {
      for (const std::uint32_t t : {1u, kUnbounded}) {
        for (const std::uint32_t crashes : {0u, 1u}) {
          for (const bool sym : {true, false}) {
            verify::JobSpec spec;
            spec.protocol = GetParam();
            spec.params["n"] = n;
            spec.kind = kind;
            spec.t = t;
            spec.processes = n;
            spec.crash_budget = crashes;
            spec.symmetry_reduction = sym;
            const std::string name =
                GetParam() + " " + std::string(model::to_string(kind)) +
                " n=" + std::to_string(n) + " t=" + std::to_string(t) +
                " crashes=" + std::to_string(crashes) +
                " sym=" + std::to_string(sym);
            verify::Instance instance;
            try {
              instance = verify::instantiate(spec);
            } catch (const std::invalid_argument&) {
              continue;  // e.g. more processes than the protocol's n
            }
            sched::ExploreOptions options;
            options.max_states = 50'000;
            options.stop_at_first_violation = false;
            options.killed_is_violation =
                kind == FaultKind::kNonresponsive;
            options.symmetry_reduction = sym;
            options.wait_free_bound = true;
            sched::FrontierExploreOptions frontier;
            frontier.explore = options;
            frontier.num_threads = 2;
            sched::ExploreResult dfs, bfs;
            try {
              dfs = sched::explore(instance.world(), options);
              bfs = sched::frontier_explore(instance.config,
                                            *instance.factory,
                                            instance.inputs, frontier)
                        .explore;
            } catch (const std::out_of_range&) {
              continue;  // an access outside the layout (ROADMAP item 1)
            }
            if (!dfs.complete || !bfs.complete) continue;  // capped
            ++compared;
            EXPECT_EQ(dfs.states_visited, bfs.states_visited) << name;
            EXPECT_EQ(dfs.wait_free_bound, bfs.wait_free_bound) << name;
            const bool nonterminating =
                dfs.violations_of(sched::ViolationKind::kNontermination) >
                0;
            EXPECT_EQ(nonterminating,
                      bfs.violations_of(
                          sched::ViolationKind::kNontermination) > 0)
                << name;
            if (kind != FaultKind::kDataCorruption) {
              EXPECT_EQ(dfs.wait_free_bound.has_value(), !nonterminating)
                  << name;
            } else if (nonterminating) {
              EXPECT_FALSE(dfs.wait_free_bound.has_value()) << name;
            }
            if (!dfs.wait_free_bound) continue;
            ++bounded;
            // Both depths are lengths of real execution prefixes.
            EXPECT_GE(*dfs.wait_free_bound, dfs.max_depth) << name;
            EXPECT_GE(*dfs.wait_free_bound, bfs.max_depth) << name;
          }
        }
      }
    }
  }
  // Neither check is vacuous: every protocol has complete jobs, and
  // some of them are bounded.
  EXPECT_GT(compared, 0u);
  EXPECT_GT(bounded, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BoundDifferential, ::testing::ValuesIn(simulable_protocols()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name;
      for (const char c : param_info.param) name += c == '-' ? '_' : c;
      return name;
    });

}  // namespace
}  // namespace ff
