// Accesses outside the layout: one defined rule for every engine.
//
// A corrupted value can drive an indexed protocol past its objects or
// registers (announce-cas reads R[v] for a delivered v).  The rule:
//
//   * enumeration offers such a step only as the plain step and
//     crash-before — the two choices that do not read the addressed word
//     (no fault branches, no crash-after);
//   * performing the access throws std::out_of_range, in SimWorld and in
//     LaneSpace alike, so explore(), frontier_explore() and fuzz() throw
//     (the frontier rethrows its worker's exception after the join),
//     every one with the same text naming the word and the layout.
//
// The machines below issue the bad access from their first step, a CAS
// on object 7 of 1 and a register write to register 5 of 1, and can crash
// (so the crash-after check meets the bad index too).  Before the rule,
// enumeration read the addressed word unchecked; this suite runs under
// ASan (scripts/check.sh stage 5), which reports that read.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/explorer.hpp"
#include "sched/frontier_explorer.hpp"
#include "sched/fuzzer.hpp"
#include "sched/lane_space.hpp"

namespace ff::sched {
namespace {

/// One step, then done with its input as the decision.  A crash before
/// the step re-enters at the step.
class OutOfRangeMachine : public StepMachine {
 public:
  OutOfRangeMachine(PendingOp op, std::uint64_t input)
      : op_(op), input_(input) {}

  [[nodiscard]] PendingOp next_op() const override {
    return done_ ? PendingOp::none() : op_;
  }
  void deliver(model::Value /*returned*/) override { done_ = true; }
  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t decision() const override { return input_; }
  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(done_ ? 1 : 0);
    out.push_back(input_);
  }
  [[nodiscard]] std::unique_ptr<StepMachine> clone() const override {
    return std::make_unique<OutOfRangeMachine>(*this);
  }
  [[nodiscard]] bool can_crash() const override { return !done_; }
  void crash() override {}

 private:
  PendingOp op_;
  std::uint64_t input_;
  bool done_ = false;
};

class OutOfRangeFactory : public MachineFactory {
 public:
  explicit OutOfRangeFactory(OpType type) : type_(type) {}

  [[nodiscard]] std::unique_ptr<StepMachine> make(
      objects::ProcessId /*pid*/, std::uint64_t input) const override {
    const PendingOp op =
        type_ == OpType::kCas
            ? PendingOp::cas(7, model::Value::bottom(), model::Value::of(input))
            : PendingOp::reg_write(5, model::Value::of(input));
    return std::make_unique<OutOfRangeMachine>(op, input);
  }
  [[nodiscard]] std::uint32_t objects_used() const override { return 1; }
  [[nodiscard]] std::uint32_t registers_used() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "out-of-range"; }

 private:
  OpType type_;
};

struct Case {
  std::string name;
  OpType type;
  std::uint32_t crash_budget;
  std::string what;  ///< the exception's text
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {"cas", OpType::kCas, 0, "CAS object 7 is outside the layout (1)"},
      {"cas crashes=1", OpType::kCas, 1,
       "CAS object 7 is outside the layout (1)"},
      {"register write crashes=1", OpType::kRegWrite, 1,
       "register 5 is outside the layout (1)"},
  };
  return all;
}

/// The text of the std::out_of_range `f` throws ("" when it throws none).
template <typename F>
std::string out_of_range_text(F&& f) {
  try {
    f();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "";
}

SimConfig config_of(const Case& c) {
  SimConfig config;
  config.num_objects = 1;
  config.num_registers = 1;
  config.kind = model::FaultKind::kOverriding;
  config.t = 1;
  config.crash_budget = c.crash_budget;
  return config;
}

const std::vector<std::uint64_t> kInputs = {1, 2};

TEST(OutOfRange, EnumerationOffersOnlyThePlainStepAndCrashBefore) {
  for (const Case& c : cases()) {
    const OutOfRangeFactory factory(c.type);
    const SimWorld world(config_of(c), factory, kInputs);
    std::vector<Choice> expected;
    for (objects::ProcessId pid = 0; pid < kInputs.size(); ++pid) {
      expected.push_back({pid, false, 0});
      if (c.crash_budget > 0) expected.push_back({pid, false, 0, true});
    }
    EXPECT_EQ(world.enabled(), expected) << c.name;

    LaneArena arena;
    LaneCache cache;
    const LaneSpace space(world, arena, false, false);
    std::vector<std::uint64_t> state(space.stride());
    space.state_of(world, state.data());
    std::vector<Choice> got;
    space.enabled(state.data(), got, cache);
    EXPECT_EQ(got, expected) << c.name;

    // The plain step throws in both, with the same text; crash-before
    // does not touch the word.
    std::vector<std::uint64_t> child(space.stride());
    SimWorld stepped = world;
    EXPECT_EQ(out_of_range_text([&] { stepped.apply(expected[0]); }), c.what)
        << c.name;
    EXPECT_EQ(out_of_range_text([&] {
                space.apply(state.data(), expected[0], child.data(), cache);
              }),
              c.what)
        << c.name;
    if (c.crash_budget > 0) {
      SimWorld crashed = world;
      crashed.apply(expected[1]);
      space.apply(state.data(), expected[1], child.data(), cache);
      std::vector<std::uint64_t> mirror(space.stride());
      space.state_of(crashed, mirror.data());
      EXPECT_EQ(child, mirror) << c.name;
    }
  }
}

TEST(OutOfRange, SearchingEnginesThrow) {
  for (const Case& c : cases()) {
    const OutOfRangeFactory factory(c.type);
    const SimWorld world(config_of(c), factory, kInputs);
    EXPECT_EQ(out_of_range_text([&] { (void)explore(world); }), c.what)
        << c.name;
    for (const std::uint32_t threads : {1u, 2u}) {
      FrontierExploreOptions options;
      options.num_threads = threads;
      EXPECT_EQ(out_of_range_text([&] {
                  (void)frontier_explore(config_of(c), factory, kInputs,
                                         options);
                }),
                c.what)
          << c.name << " threads=" << threads;
    }
    FuzzOptions options;
    options.budget.max_units = 1000;
    EXPECT_EQ(out_of_range_text([&] { (void)fuzz(world, options); }), c.what)
        << c.name;
  }
}

// The frontier's run ends incomplete and without a violation: no Report
// comes back at all, only the worker's std::out_of_range, rethrown after
// every worker has stopped.  This holds at one thread and when other
// workers own the root's shard.
TEST(OutOfRange, FrontierEndsIncompleteWithoutAViolation) {
  for (const Case& c : cases()) {
    const OutOfRangeFactory factory(c.type);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      FrontierExploreOptions options;
      options.num_threads = threads;
      const std::string label = c.name + " threads=" + std::to_string(threads);
      try {
        const FrontierExploreResult result =
            frontier_explore(config_of(c), factory, kInputs, options);
        ADD_FAILURE() << label << ": returned a Report (complete="
                      << result.explore.complete << ", violations="
                      << result.explore.violations_found << ")";
      } catch (const std::out_of_range&) {
      }
    }
  }
}

}  // namespace
}  // namespace ff::sched
