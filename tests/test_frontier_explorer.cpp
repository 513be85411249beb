// Differential-testing harness for the owner-computes frontier explorer
// (sched/frontier_explorer.hpp): the frontier census must be BIT-EQUAL
// to the sequential oracle's on every cell of two grids — the
// legacy-machine differential grid (hand-written StepMachines) and the
// simulable-registry × fault-kind × crash-budget grid (generated
// machines) — with symmetry reduction on and off, at two and four
// threads.  Witnesses must strictly replay.  Also covers
// ExploreOptions::max_states truncation for both explorers (a capped run
// must be incomplete and must not fabricate a violation on a correct
// configuration), and a worker's exception, which must reach the caller
// instead of terminating the process.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "explore_diff.hpp"
#include "legacy/machines.hpp"
#include "proto/registry.hpp"
#include "sched/explorer.hpp"
#include "sched/frontier_explorer.hpp"
#include "verify/run.hpp"

namespace ff {
namespace {

using model::FaultKind;
using model::kUnbounded;
using sched::ExploreOptions;
using sched::ExploreResult;
using sched::FrontierExploreOptions;
using sched::FrontierExploreResult;
using sched::ViolationKind;
using testutil::differential_grid;
using testutil::expect_witness_reproduces;
using testutil::full_space_options;
using testutil::grid_config;
using testutil::GridCase;
using testutil::iota_inputs;

/// One cell of the registry grid: a registered protocol under a fault
/// kind and a crash budget, described as the canonical verify::JobSpec
/// the front ends would submit.  verify::instantiate() resolves the
/// config/factory/inputs the engines actually see — the test exercises
/// the same resolution path instead of re-deriving SimConfig by hand.
struct RegistryCase {
  std::string label;
  verify::JobSpec spec;
};

std::vector<RegistryCase> registry_grid() {
  std::vector<RegistryCase> grid;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    for (const FaultKind kind :
         {FaultKind::kNone, FaultKind::kOverriding, FaultKind::kSilent,
          FaultKind::kInvisible, FaultKind::kArbitrary,
          FaultKind::kNonresponsive}) {
      for (const std::uint32_t crash_budget : {0u, 1u}) {
        RegistryCase rc;
        rc.label = info.name + "/" + std::string(model::to_string(kind)) +
                   "/crash" + std::to_string(crash_budget);
        rc.spec.protocol = info.name;
        rc.spec.kind = kind;
        rc.spec.t = kind == FaultKind::kNone ? 0 : 1;
        rc.spec.crash_budget = crash_budget;
        rc.spec.processes = 2;
        rc.spec.engine = verify::Engine::kFrontier;
        rc.spec.killed_is_violation = kind == FaultKind::kNonresponsive;
        rc.spec.stop_at_first_violation = false;
        grid.push_back(std::move(rc));
      }
    }
  }
  return grid;
}

FrontierExploreOptions fopts(const ExploreOptions& explore,
                             std::uint32_t threads) {
  FrontierExploreOptions options;
  options.explore = explore;
  options.num_threads = threads;
  return options;
}

/// Graph-derived quantities must match the oracle exactly;
/// kNontermination counts are traversal-defined (DFS back-edges vs
/// SCC-internal process edges), so only presence is compared.
void expect_census_matches(const ExploreResult& seq, const ExploreResult& fr,
                           const std::string& label) {
  EXPECT_TRUE(seq.complete) << label;
  EXPECT_TRUE(fr.complete) << label;
  EXPECT_EQ(seq.states_visited, fr.states_visited) << label;
  EXPECT_EQ(seq.terminal_states, fr.terminal_states) << label;
  EXPECT_EQ(seq.agreed_values, fr.agreed_values) << label;
  for (const ViolationKind kind :
       {ViolationKind::kInconsistent, ViolationKind::kInvalid,
        ViolationKind::kStalled}) {
    EXPECT_EQ(seq.violations_of(kind), fr.violations_of(kind))
        << label << " kind=" << sched::to_string(kind);
  }
  EXPECT_EQ(seq.violations_of(ViolationKind::kNontermination) > 0,
            fr.violations_of(ViolationKind::kNontermination) > 0)
      << label;
  EXPECT_EQ(seq.violation.has_value(), fr.violation.has_value()) << label;
  EXPECT_EQ(seq.immunity_checks, fr.immunity_checks) << label;
  EXPECT_EQ(seq.immunity_skips, fr.immunity_skips) << label;
}

void expect_frontier_matches_sequential(const sched::SimConfig& config,
                                        const sched::MachineFactory& factory,
                                        const std::vector<std::uint64_t>& inputs,
                                        const FrontierExploreOptions& options,
                                        const std::string& label) {
  const sched::SimWorld world(config, factory, inputs);
  const ExploreResult seq = sched::explore(world, options.explore);
  const FrontierExploreResult fr =
      frontier_explore(config, factory, inputs, options);
  expect_census_matches(seq, fr.explore, label);
  if (fr.explore.violation) {
    expect_witness_reproduces(world, *fr.explore.violation, label);
  }
}

// ---------------------------------------------------------------------------
// Legacy-machine grid: the scalar StepMachine arena path.
// ---------------------------------------------------------------------------

TEST(FrontierDifferential, LegacyGridTwoThreads) {
  for (const GridCase& gc : differential_grid()) {
    expect_frontier_matches_sequential(grid_config(gc), *gc.factory,
                                       iota_inputs(gc.n),
                                       fopts(full_space_options(gc), 2),
                                       gc.name + " threads=2");
  }
}

TEST(FrontierDifferential, LegacyGridSymmetryOff) {
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 3 != 0) continue;  // every third cell keeps runtime bounded
    ExploreOptions opts = full_space_options(gc);
    opts.symmetry_reduction = false;
    expect_frontier_matches_sequential(grid_config(gc), *gc.factory,
                                       iota_inputs(gc.n), fopts(opts, 4),
                                       gc.name + " sym=off");
  }
}

TEST(FrontierDifferential, DefaultOptionsStopAtFirstAgreesOnVerdict) {
  // stop_at_first_violation = true (the default): which violation is
  // reported first is traversal-dependent, but whether ANY violation
  // exists is a property of the graph and must agree.
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 2 != 0) continue;
    const sched::SimWorld world = testutil::make_world(gc);
    ExploreOptions opts;  // defaults: stop at first violation
    opts.killed_is_violation = gc.kind == FaultKind::kNonresponsive;

    const ExploreResult seq = sched::explore(world, opts);
    const FrontierExploreResult fr = frontier_explore(
        grid_config(gc), *gc.factory, iota_inputs(gc.n), fopts(opts, 2));

    EXPECT_EQ(seq.violation.has_value(), fr.explore.violation.has_value())
        << gc.name;
    EXPECT_EQ(seq.complete, fr.explore.complete) << gc.name;
    if (fr.explore.violation) {
      expect_witness_reproduces(world, *fr.explore.violation, gc.name);
    }
  }
}

// ---------------------------------------------------------------------------
// Registry grid: every simulable protocol under every per-operation
// fault kind and crash budget 0/1 — the IR/generated batch path.
// ---------------------------------------------------------------------------

TEST(FrontierDifferential, RegistryGridWithCrashBudgets) {
  std::size_t compared = 0;
  for (const RegistryCase& rc : registry_grid()) {
    const verify::Instance instance = verify::instantiate(rc.spec);
    ExploreOptions opts;
    opts.stop_at_first_violation = rc.spec.stop_at_first_violation;
    opts.killed_is_violation = rc.spec.killed_is_violation;
    // A corrupted delivered value can drive an indexed protocol to an
    // out-of-range register (announce-cas under invisible/arbitrary
    // faults): the sequential oracle throws out_of_range there, so the
    // cell has no oracle verdict to compare against — skip it.
    try {
      (void)sched::explore(instance.world(), opts);
    } catch (const std::out_of_range&) {
      continue;
    }
    expect_frontier_matches_sequential(instance.config, *instance.factory,
                                       instance.inputs, fopts(opts, 4),
                                       rc.label);
    ++compared;
  }
  EXPECT_GE(compared, 80u);  // 8 protocols × 6 kinds × 2 budgets, few skips
}

// ---------------------------------------------------------------------------
// Nontermination, engine stats, and edge cases.
// ---------------------------------------------------------------------------

TEST(FrontierExplorer, NonterminationWitnessRevisitsState) {
  // §3.4: retry-silent under unboundedly many silent faults livelocks;
  // the SCC post-pass must find the cycle and produce a replayable lap.
  const auto factory = proto::machine_factory("retry-silent");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.kind = FaultKind::kSilent;
  config.t = kUnbounded;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(2), fopts(opts, 2));
  ASSERT_TRUE(fr.explore.violation.has_value());
  EXPECT_EQ(fr.explore.violation->kind, ViolationKind::kNontermination);
  const sched::SimWorld world(config, *factory, iota_inputs(2));
  expect_witness_reproduces(world, *fr.explore.violation, "retry-silent");
}

TEST(FrontierExplorer, StatsReflectBatchedStepping) {
  // The (lane, returned) memo must do the stepping: more transitions
  // answered by the memo than misses stepped, and at least one miss
  // stepped by at least one arena resolve call.  Lanes are hash-consed
  // and the peak-memory census is nonzero.
  const auto factory = proto::machine_factory("staged");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.num_registers = factory->registers_used();
  config.kind = FaultKind::kOverriding;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(3), fopts(opts, 4));
  EXPECT_TRUE(fr.explore.complete);
  EXPECT_GT(fr.stats.waves, 0u);
  EXPECT_GT(fr.stats.memo_hits, fr.stats.batched_lanes);
  EXPECT_GT(fr.stats.batched_lanes, 0u);
  EXPECT_GT(fr.stats.batch_sweeps, 0u);
  EXPECT_LE(fr.stats.batch_sweeps, fr.stats.batched_lanes);
  EXPECT_GT(fr.stats.arena_lanes, 0u);
  EXPECT_GT(fr.explore.peak_bytes, 0u);
}

TEST(FrontierExplorer, MaxStatesTruncationIsIncompleteNotWrong) {
  // A capped run must flag incompleteness and must not fabricate a
  // violation on a correct configuration.
  const auto factory = proto::machine_factory("staged");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.num_registers = factory->registers_used();
  config.kind = FaultKind::kOverriding;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.max_states = 10;
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(3), fopts(opts, 2));
  EXPECT_FALSE(fr.explore.complete);
  EXPECT_FALSE(fr.explore.violation.has_value());
}

TEST(FrontierExplorer, TerminalInitialState) {
  // A zero-process world is terminal at the root; the first dedup pass
  // interns it and wave 0 expands nothing.
  const auto factory = proto::machine_factory("single-cas");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, {}, fopts(ExploreOptions{}, 2));
  const sched::SimWorld world(config, *factory, {});
  const ExploreResult seq = sched::explore(world);
  EXPECT_EQ(seq.states_visited, fr.explore.states_visited);
  EXPECT_EQ(seq.terminal_states, fr.explore.terminal_states);
  EXPECT_EQ(seq.complete, fr.explore.complete);
  EXPECT_EQ(fr.stats.waves, 0u);
}

// ---------------------------------------------------------------------------
// ExploreOptions::max_states truncation.
// ---------------------------------------------------------------------------

// staged f=2, t=2, n=3 is a known-correct configuration whose state space
// far exceeds the caps used here: a truncated run must come back
// incomplete and must NOT fabricate a violation.
sched::SimWorld big_correct_world() {
  static const consensus::StagedFactory factory(2, 2);
  sched::SimConfig config;
  config.num_objects = 2;
  config.kind = FaultKind::kOverriding;
  config.t = 2;
  return sched::SimWorld(config, factory, iota_inputs(3));
}

TEST(MaxStatesTruncation, SequentialCapIsIncompleteAndFabricatesNothing) {
  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  options.max_states = 500;
  const auto result = sched::explore(big_correct_world(), options);
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.violations_found, 0u);
  EXPECT_LE(result.states_visited, options.max_states + 1);
}

TEST(MaxStatesTruncation, UncappedMediumWorldIsCompleteAndAgrees) {
  // staged f=2, t=2 at n=2: the same protocol family as the capped runs
  // above, but small enough (~380k states) to explore exhaustively.
  static const consensus::StagedFactory factory(2, 2);
  sched::SimConfig config;
  config.num_objects = 2;
  config.kind = FaultKind::kOverriding;
  config.t = 2;
  const sched::SimWorld world(config, factory, iota_inputs(2));
  ExploreOptions options;
  options.stop_at_first_violation = false;
  const ExploreResult seq = sched::explore(world, options);
  const FrontierExploreResult fr =
      frontier_explore(config, factory, iota_inputs(2), fopts(options, 2));
  ASSERT_TRUE(seq.complete);
  ASSERT_TRUE(fr.explore.complete);
  EXPECT_EQ(seq.states_visited, fr.explore.states_visited);
  EXPECT_EQ(seq.terminal_states, fr.explore.terminal_states);
  EXPECT_EQ(seq.violations_found, 0u);
  EXPECT_EQ(fr.explore.violations_found, 0u);
  EXPECT_EQ(seq.agreed_values, fr.explore.agreed_values);
}

// ---------------------------------------------------------------------------
// A step that throws inside a worker.
// ---------------------------------------------------------------------------

/// Retries one CAS and throws on its kThrowAt-th delivery — a stand-in
/// for any step that fails while a worker expands it (an out-of-range
/// register read, say).  Built from the public StepMachine API alone,
/// like test_mutation's mutants.
class ThrowingMachine final : public sched::StepMachine {
 public:
  static constexpr std::uint32_t kThrowAt = 3;

  explicit ThrowingMachine(std::uint64_t input) : input_(input) {}

  [[nodiscard]] sched::PendingOp next_op() const override {
    return sched::PendingOp::cas(0, model::Value::bottom(),
                                 model::Value::of(input_));
  }
  void deliver(model::Value) override {
    if (++deliveries_ == kThrowAt) {
      throw std::runtime_error("ThrowingMachine: delivery " +
                               std::to_string(kThrowAt));
    }
  }
  [[nodiscard]] bool done() const override { return false; }
  [[nodiscard]] std::uint64_t decision() const override { return input_; }
  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(deliveries_);
    out.push_back(input_);
  }
  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<ThrowingMachine>(*this);
  }

 private:
  std::uint64_t input_;
  std::uint32_t deliveries_ = 0;
};

class ThrowingFactory final : public sched::MachineFactory {
 public:
  [[nodiscard]] std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId, std::uint64_t input) const override {
    return std::make_unique<ThrowingMachine>(input);
  }
  [[nodiscard]] std::uint32_t objects_used() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "throwing"; }
};

TEST(FrontierExplorer, WorkerExceptionIsRethrownToTheCaller) {
  const ThrowingFactory factory;
  sched::SimConfig config;
  config.num_objects = 1;
  config.kind = FaultKind::kNone;
  ExploreOptions options;
  options.stop_at_first_violation = false;
  // The sequential explorer lets the step's exception through; the
  // frontier must do the same from any worker, not std::terminate.
  const sched::SimWorld world(config, factory, iota_inputs(2));
  EXPECT_THROW(static_cast<void>(sched::explore(world, options)),
               std::runtime_error);
  for (const std::uint32_t threads : {1u, 4u}) {
    EXPECT_THROW(static_cast<void>(frontier_explore(
                     config, factory, iota_inputs(2), fopts(options, threads))),
                 std::runtime_error)
        << threads;
  }
}

}  // namespace
}  // namespace ff
