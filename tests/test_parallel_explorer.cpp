// Differential-testing harness for the parallel explorer: for every seed
// protocol × fault kind × (f, t) budget in the grid, the parallel
// explorer's verdict, state count and agreed-value set must exactly match
// the sequential oracle, and every parallel witness must replay to a real
// violation.  Also covers ExploreOptions::max_states truncation for both
// explorers (a capped run must be incomplete and must not fabricate a
// violation on a correct configuration), and a worker's exception, which
// must reach the caller instead of terminating the process.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "legacy/machines.hpp"
#include "explore_diff.hpp"
#include "sched/explorer.hpp"
#include "sched/parallel_explorer.hpp"
#include "sched/program.hpp"

namespace ff {
namespace {

using consensus::RetrySilentFactory;
using consensus::StagedFactory;
using model::FaultKind;
using model::kUnbounded;
using sched::ParallelExploreOptions;
using sched::ViolationKind;
using testutil::differential_grid;
using testutil::expect_parallel_matches_sequential;
using testutil::expect_witness_reproduces;
using testutil::full_space_options;
using testutil::GridCase;
using testutil::make_world;

ParallelExploreOptions popts(const GridCase& gc, std::uint32_t threads,
                             std::uint32_t shards, std::uint32_t chunk) {
  ParallelExploreOptions options;
  options.explore = full_space_options(gc);
  options.num_threads = threads;
  options.shard_count = shards;
  options.chunk_size = chunk;
  return options;
}

TEST(ParallelDifferential, FullGridTwoThreads) {
  for (const GridCase& gc : differential_grid()) {
    expect_parallel_matches_sequential(gc, popts(gc, 2, 16, 4));
  }
}

TEST(ParallelDifferential, FullGridFourThreads) {
  for (const GridCase& gc : differential_grid()) {
    expect_parallel_matches_sequential(gc, popts(gc, 4, 64, 2));
  }
}

TEST(ParallelDifferential, SingleThreadSingleShardDegenerate) {
  // One worker over one table stripe and chunk 1: the degenerate
  // configuration exercises the same code paths with maximal contention
  // on a single lock and must still match the oracle.
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 3 != 0) continue;  // every third cell keeps runtime bounded
    expect_parallel_matches_sequential(gc, popts(gc, 1, 1, 1));
  }
}

TEST(ParallelDifferential, DefaultOptionsStopAtFirstAgreesOnVerdict) {
  // stop_at_first_violation = true (the default): which violation is
  // reported first is traversal-dependent, but whether ANY violation
  // exists is a property of the graph and must agree.
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 2 != 0) continue;
    const sched::SimWorld world = make_world(gc);
    sched::ExploreOptions opts;  // defaults: stop at first violation
    opts.killed_is_violation = gc.kind == FaultKind::kNonresponsive;

    const auto seq = sched::explore(world, opts);
    ParallelExploreOptions par_opts;
    par_opts.explore = opts;
    par_opts.num_threads = 2;
    const auto par = sched::parallel_explore(world, par_opts);

    EXPECT_EQ(seq.violation.has_value(), par.violation.has_value())
        << gc.name;
    EXPECT_EQ(seq.complete, par.complete) << gc.name;
    if (par.violation) {
      expect_witness_reproduces(world, *par.violation, gc.name);
    }
  }
}

TEST(ParallelDifferential, NonterminationWitnessRevisitsState) {
  // §3.4: retry-silent under unboundedly many silent faults livelocks.
  // The parallel explorer must find the cycle via its SCC post-pass and
  // produce a witness whose replay revisits a state with a process step
  // in the repeated suffix.
  const GridCase gc{"retry-silent/silent/tinf/n2",
                    std::make_shared<RetrySilentFactory>(),
                    FaultKind::kSilent, kUnbounded, 2};
  const sched::SimWorld world = make_world(gc);
  ParallelExploreOptions options = popts(gc, 2, 8, 2);
  const auto result = sched::parallel_explore(world, options);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, ViolationKind::kNontermination);
  EXPECT_GT(result.violations_of(ViolationKind::kNontermination), 0u);
  expect_witness_reproduces(world, *result.violation, gc.name);
}

TEST(ParallelDifferential, TerminalInitialState) {
  // A zero-process world is terminal at the root; both explorers handle
  // it without spawning work.
  const consensus::SingleCasFactory factory;
  sched::SimConfig config;
  config.num_objects = 1;
  const sched::SimWorld world(config, factory, {});
  const auto seq = sched::explore(world);
  const auto par = sched::parallel_explore(world);
  EXPECT_EQ(seq.states_visited, par.states_visited);
  EXPECT_EQ(seq.terminal_states, par.terminal_states);
  EXPECT_EQ(seq.complete, par.complete);
  EXPECT_EQ(seq.violation.has_value(), par.violation.has_value());
}

// --- ExploreOptions::max_states truncation ---------------------------------

// staged f=2, t=2, n=3 is a known-correct configuration whose state space
// far exceeds the caps used here: a truncated run must come back
// incomplete and must NOT fabricate a violation.
sched::SimWorld big_correct_world() {
  static const StagedFactory factory(2, 2);
  sched::SimConfig config;
  config.num_objects = 2;
  config.kind = FaultKind::kOverriding;
  config.t = 2;
  return sched::SimWorld(config, factory, testutil::iota_inputs(3));
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

TEST(MaxStatesTruncation, ParallelCapIsIncompleteAndFabricatesNothing) {
  for (const std::uint32_t threads : {1u, 4u}) {
    ParallelExploreOptions options;
    options.explore.stop_at_first_violation = false;
    options.explore.max_states = 500;
    options.num_threads = threads;
    const auto result =
        sched::parallel_explore(big_correct_world(), options);
    EXPECT_FALSE(result.complete) << threads;
    EXPECT_FALSE(result.violation.has_value()) << threads;
    EXPECT_EQ(result.violations_found, 0u) << threads;
    // Workers race past the cap by at most one in-flight insertion each.
    EXPECT_LE(result.states_visited, options.explore.max_states + threads)
        << threads;
  }
}

TEST(MaxStatesTruncation, UncappedMediumWorldIsCompleteAndAgrees) {
  // staged f=2, t=2 at n=2: the same protocol family as the capped runs
  // above, but small enough (~380k states) to explore exhaustively.
  static const StagedFactory factory(2, 2);
  sched::SimConfig config;
  config.num_objects = 2;
  config.kind = FaultKind::kOverriding;
  config.t = 2;
  const sched::SimWorld world(config, factory, testutil::iota_inputs(2));
  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  const auto seq = sched::explore(world, options);
  ParallelExploreOptions par_options;
  par_options.explore = options;
  par_options.num_threads = 2;
  const auto par = sched::parallel_explore(world, par_options);
  ASSERT_TRUE(seq.complete);
  ASSERT_TRUE(par.complete);
  EXPECT_EQ(seq.states_visited, par.states_visited);
  EXPECT_EQ(seq.terminal_states, par.terminal_states);
  EXPECT_EQ(seq.violations_found, 0u);
  EXPECT_EQ(par.violations_found, 0u);
  EXPECT_EQ(seq.agreed_values, par.agreed_values);
}

// --- A step that throws inside a worker --------------------------------------

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

TEST(ParallelExplorer, WorkerExceptionIsRethrownToTheCaller) {
  const ThrowingFactory factory;
  sched::SimConfig config;
  config.num_objects = 1;
  config.kind = FaultKind::kNone;
  const sched::SimWorld world(config, factory, testutil::iota_inputs(2));
  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  // The sequential explorer lets the step's exception through; the
  // parallel one must do the same from any worker, not std::terminate.
  EXPECT_THROW(static_cast<void>(sched::explore(world, options)),
               std::runtime_error);
  for (const std::uint32_t threads : {1u, 4u}) {
    ParallelExploreOptions par_options;
    par_options.explore = options;
    par_options.num_threads = threads;
    EXPECT_THROW(
        static_cast<void>(sched::parallel_explore(world, par_options)),
        std::runtime_error)
        << threads;
  }
}

}  // namespace
}  // namespace ff
