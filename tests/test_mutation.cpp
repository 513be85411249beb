// Mutation testing of the verification pipeline: deliberately broken
// protocols must be caught by the explorer even WITHOUT any faults.
// (A checker that only ever blesses correct protocols proves nothing;
// these mutants establish its discrimination.)  Also demonstrates the
// public StepMachine API for user-defined protocols.
#include <gtest/gtest.h>

#include <memory>

#include "sched/explorer.hpp"
#include "sched/frontier_explorer.hpp"
#include "sched/program.hpp"
#include "sched/sim_world.hpp"

namespace ff {
namespace {

using model::Value;
using sched::PendingOp;
using sched::StepMachine;

/// Mutant 1: Herlihy with the adoption dropped — every process decides
/// its own input no matter what the CAS returned.
class StubbornMachine final : public StepMachine {
 public:
  explicit StubbornMachine(std::uint64_t input) : input_(input) {}

  [[nodiscard]] PendingOp next_op() const override {
    if (done_) return PendingOp::none();
    return PendingOp::cas(0, Value::bottom(), Value::of(input_));
  }
  void deliver(Value) override { done_ = true; }  // BUG: ignores old
  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t decision() const override { return input_; }
  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(done_ ? 1 : 0);
    out.push_back(input_);
  }
  [[nodiscard]] std::unique_ptr<StepMachine> clone() const override {
    return std::make_unique<StubbornMachine>(*this);
  }

 private:
  std::uint64_t input_;
  bool done_ = false;
};

/// Mutant 2: adopts the old value but decides old+1 — a validity bug.
class OffByOneMachine final : public StepMachine {
 public:
  explicit OffByOneMachine(std::uint64_t input) : input_(input) {}

  [[nodiscard]] PendingOp next_op() const override {
    if (done_) return PendingOp::none();
    return PendingOp::cas(0, Value::bottom(), Value::of(input_));
  }
  void deliver(Value returned) override {
    decision_ = returned.is_bottom() ? input_ : returned.raw() + 1;  // BUG
    done_ = true;
  }
  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t decision() const override { return decision_; }
  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(done_ ? 1 : 0);
    out.push_back(done_ ? decision_ : input_);
  }
  [[nodiscard]] std::unique_ptr<StepMachine> clone() const override {
    return std::make_unique<OffByOneMachine>(*this);
  }

 private:
  std::uint64_t input_;
  std::uint64_t decision_ = 0;
  bool done_ = false;
};

/// Mutant 3: never finishes — retries the same failing CAS forever.
class SpinningMachine final : public StepMachine {
 public:
  explicit SpinningMachine(std::uint64_t input) : input_(input) {}

  [[nodiscard]] PendingOp next_op() const override {
    if (done_) return PendingOp::none();
    return PendingOp::cas(0, Value::bottom(), Value::of(input_));
  }
  void deliver(Value returned) override {
    if (returned.is_bottom()) done_ = true;  // BUG: loser spins forever
  }
  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t decision() const override { return input_; }
  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(done_ ? 1 : 0);
    out.push_back(input_);
  }
  [[nodiscard]] std::unique_ptr<StepMachine> clone() const override {
    return std::make_unique<SpinningMachine>(*this);
  }

 private:
  std::uint64_t input_;
  bool done_ = false;
};

template <typename M>
class MutantFactory final : public sched::MachineFactory {
 public:
  [[nodiscard]] std::unique_ptr<StepMachine> make(
      objects::ProcessId, std::uint64_t input) const override {
    return std::make_unique<M>(input);
  }
  [[nodiscard]] std::uint32_t objects_used() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "mutant"; }
};

sched::SimConfig fault_free_config() {
  sched::SimConfig config;
  config.num_objects = 1;
  config.kind = model::FaultKind::kNone;
  return config;
}

std::vector<std::uint64_t> inputs(std::uint32_t n) {
  std::vector<std::uint64_t> out(n);
  for (std::uint32_t i = 0; i < n; ++i) out[i] = i + 1;
  return out;
}

sched::SimWorld fault_free_world(const sched::MachineFactory& factory,
                                 std::uint32_t n) {
  return sched::SimWorld(fault_free_config(), factory, inputs(n));
}

TEST(Mutation, StubbornMutantCaughtAsInconsistent) {
  const MutantFactory<StubbornMachine> factory;
  const auto result = sched::explore(fault_free_world(factory, 2));
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, sched::ViolationKind::kInconsistent);
}

TEST(Mutation, OffByOneMutantCaughtAsInvalid) {
  // Depending on who wins, old+1 may collide with the other input
  // (inconsistent) or be nobody's input (invalid); the full census must
  // contain at least one INVALID terminal.
  const MutantFactory<OffByOneMachine> factory;
  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  const auto result =
      sched::explore(fault_free_world(factory, 2), options);
  EXPECT_GT(result.violations_of(sched::ViolationKind::kInvalid), 0u);
}

TEST(Mutation, SpinningMutantCaughtAsNontermination) {
  const MutantFactory<SpinningMachine> factory;
  const auto result = sched::explore(fault_free_world(factory, 2));
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, sched::ViolationKind::kNontermination);
}

TEST(Mutation, SpinningMutantAlsoFlaggedByLongestExecution) {
  // The loser's retry loop is a cycle, so no execution length bounds
  // the run: neither exhaustive engine reports a wait-free bound, even
  // from a search that covered the whole space.
  const MutantFactory<SpinningMachine> factory;
  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  options.wait_free_bound = true;
  const auto dfs = sched::explore(fault_free_world(factory, 2), options);
  EXPECT_TRUE(dfs.complete);
  EXPECT_FALSE(dfs.wait_free_bound.has_value());
  for (const std::uint32_t threads : {1u, 4u}) {
    sched::FrontierExploreOptions frontier;
    frontier.explore = options;
    frontier.num_threads = threads;
    const auto result = sched::frontier_explore(fault_free_config(), factory,
                                                inputs(2), frontier);
    EXPECT_TRUE(result.explore.complete) << threads << " threads";
    EXPECT_FALSE(result.explore.wait_free_bound.has_value())
        << threads << " threads";
  }
}

TEST(Mutation, SoloRunsOfMutantsLookFine) {
  // Each mutant is correct in isolation — only interleaving exposes the
  // bugs, which is exactly why exhaustive search is needed.
  for (const auto* factory :
       std::initializer_list<const sched::MachineFactory*>{
           new MutantFactory<StubbornMachine>,
           new MutantFactory<OffByOneMachine>,
           new MutantFactory<SpinningMachine>}) {
    const auto result = sched::explore(fault_free_world(*factory, 1));
    EXPECT_TRUE(result.complete);
    EXPECT_FALSE(result.violation.has_value());
    delete factory;
  }
}

}  // namespace
}  // namespace ff
