// Differential crash-test suite for the crash–recovery fault model.
//
// Four pillars:
//   1. Budget 0 is a no-op: the census of every simulable registry
//      protocol with crash_budget = 0 equals a crash-free oracle — the
//      frozen pre-change legacy machine where one exists, the protocol's
//      non-recoverable original program for the recoverable variants
//      (identical semantics when crashes cannot happen).
//   2. The crash-branch census is identical across the sequential,
//      frontier and symmetry-reduced explorers (symmetry preserves every
//      orbit-invariant property).
//   3. Crash witnesses strictly replay and shrink to 1-minimal
//      schedules via shrink_witness — and the minimal recoverable-cas
//      disagreement witness necessarily contains a crash.
//   4. A recovered process never observes stale volatile locals:
//      statically (finalize() rejects a volatile local live at the
//      recovery entry) and dynamically (the pre-crash value is wiped
//      from the machine encoding the moment the crash branch is taken).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "explore_diff.hpp"
#include "proto/machine.hpp"
#include "proto/programs.hpp"
#include "proto/registry.hpp"
#include "sched/frontier_explorer.hpp"
#include "sched/fuzzer.hpp"

namespace ff {
namespace {

using sched::Choice;
using sched::ExploreOptions;
using sched::ViolationKind;

sched::SimConfig crash_config(const sched::MachineFactory& factory,
                              model::FaultKind kind, std::uint32_t t,
                              std::uint32_t crash_budget) {
  sched::SimConfig config;
  config.num_objects = factory.objects_used();
  config.num_registers = factory.registers_used();
  config.kind = kind;
  config.t = kind == model::FaultKind::kNone ? 0 : t;
  config.crash_budget = crash_budget;
  return config;
}

sched::SimWorld make_crash_world(const sched::MachineFactory& factory,
                                 model::FaultKind kind, std::uint32_t t,
                                 std::uint32_t n,
                                 std::uint32_t crash_budget) {
  return sched::SimWorld(crash_config(factory, kind, t, crash_budget),
                         factory, testutil::iota_inputs(n));
}

void expect_same_census(const sched::ExploreResult& a,
                        const sched::ExploreResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.complete, b.complete) << label;
  EXPECT_EQ(a.states_visited, b.states_visited) << label;
  EXPECT_EQ(a.terminal_states, b.terminal_states) << label;
  EXPECT_EQ(a.violations_by_kind, b.violations_by_kind) << label;
  EXPECT_EQ(a.agreed_values, b.agreed_values) << label;
}

// ---------------------------------------------------------------------------
// 1. crash_budget = 0 reproduces the pre-change census exactly.

/// Crash-free oracle factory for each simulable registry protocol (at
/// its default parameters): the retired pre-change machine for the six
/// protocols that have one, the non-recoverable original program for the
/// recoverable variants.  The test fails when a registry protocol has no
/// oracle here, so new protocols must register a crash-free twin.
std::map<std::string, std::shared_ptr<const sched::MachineFactory>>
crash_free_oracles() {
  return {
      {"single-cas", std::make_shared<consensus::SingleCasFactory>()},
      {"f-plus-one", std::make_shared<consensus::FPlusOneFactory>(2)},
      {"staged", std::make_shared<consensus::StagedFactory>(1, 1)},
      {"retry-silent", std::make_shared<consensus::RetrySilentFactory>()},
      {"announce-cas", std::make_shared<consensus::AnnounceCasFactory>(2)},
      {"tas", std::make_shared<consensus::TasFactory>(2)},
      // The recoverable programs differ from their originals only in
      // local persistence and the recovery label — both invisible when
      // no crash can occur.
      {"recoverable-cas",
       std::make_shared<proto::IrMachineFactory>(proto::single_cas_program())},
      {"recoverable-staged",
       std::make_shared<proto::IrMachineFactory>(proto::staged_program(1, 1))},
  };
}

TEST(CrashBudgetZero, CensusEqualsPreChangeOracleForEveryRegistryProtocol) {
  const auto oracles = crash_free_oracles();
  for (const proto::ProtocolInfo& info :
       proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    const auto oracle = oracles.find(info.name);
    ASSERT_NE(oracle, oracles.end())
        << "registry protocol `" << info.name
        << "` has no crash-free oracle — add one to crash_free_oracles()";
    const auto factory = proto::machine_factory(info.name);

    for (const auto& [kind, t] :
         std::vector<std::pair<model::FaultKind, std::uint32_t>>{
             {model::FaultKind::kNone, 0},
             {model::FaultKind::kOverriding, 1},
             {model::FaultKind::kSilent, 1}}) {
      const std::string label = info.name + "/" +
                                std::string(model::to_string(kind)) +
                                "/budget0";
      const sched::SimWorld with_plumbing =
          make_crash_world(*factory, kind, t, 2, /*crash_budget=*/0);
      const sched::SimWorld crash_free =
          make_crash_world(*oracle->second, kind, t, 2, /*crash_budget=*/0);

      ExploreOptions options;
      options.stop_at_first_violation = false;
      expect_same_census(sched::explore(with_plumbing, options),
                         sched::explore(crash_free, options), label);
    }
  }
}

TEST(CrashBudgetZero, EncodingLayoutGainsExactlyOneWordPerProcessWithBudget) {
  const auto factory = proto::machine_factory("recoverable-cas");
  const std::uint32_t n = 2;
  const auto without =
      make_crash_world(*factory, model::FaultKind::kNone, 0, n, 0).encode();
  const auto with =
      make_crash_world(*factory, model::FaultKind::kNone, 0, n, 1).encode();
  // Budget 0 omits the per-process crashes_used word entirely, so the
  // crash-free encoding — and with it every pre-change fingerprint — is
  // reproduced bit for bit.
  EXPECT_EQ(with.size(), without.size() + n);
}

// ---------------------------------------------------------------------------
// 2. Crash-branch census identical across explorers and reductions.

struct CrashGridCase {
  std::string name;
  model::FaultKind kind;
  std::uint32_t t;
  std::uint32_t budget;
};

TEST(CrashCensus, IdenticalAcrossSequentialParallelAndReducedExplorers) {
  for (const char* protocol : {"recoverable-cas", "recoverable-staged"}) {
    const auto factory = proto::machine_factory(protocol);
    for (const CrashGridCase& gc : std::vector<CrashGridCase>{
             {"none/b1", model::FaultKind::kNone, 0, 1},
             {"none/b2", model::FaultKind::kNone, 0, 2},
             {"overriding/t1/b1", model::FaultKind::kOverriding, 1, 1}}) {
      const std::string label = std::string(protocol) + "/" + gc.name;
      const sched::SimWorld world =
          make_crash_world(*factory, gc.kind, gc.t, 2, gc.budget);

      ExploreOptions unreduced;
      unreduced.stop_at_first_violation = false;
      unreduced.symmetry_reduction = false;
      const auto base = sched::explore(world, unreduced);
      EXPECT_TRUE(base.complete) << label;

      // Symmetry folds states into orbits: counts become per-orbit, but
      // every checked property is orbit-invariant.
      ExploreOptions reduced = unreduced;
      reduced.symmetry_reduction = true;
      const auto sym = sched::explore(world, reduced);
      EXPECT_EQ(base.complete, sym.complete) << label;
      EXPECT_EQ(base.agreed_values, sym.agreed_values) << label;
      EXPECT_EQ(base.violation.has_value(), sym.violation.has_value())
          << label;
      for (const ViolationKind kind :
           {ViolationKind::kInconsistent, ViolationKind::kInvalid,
            ViolationKind::kStalled, ViolationKind::kNontermination}) {
        EXPECT_EQ(base.violations_of(kind) > 0, sym.violations_of(kind) > 0)
            << label << " kind=" << sched::to_string(kind);
      }

      // The frontier explorer must agree with its sequential twin on
      // every graph-derived quantity, reductions on and off.
      for (const ExploreOptions& options : {unreduced, reduced}) {
        sched::FrontierExploreOptions fopts;
        fopts.explore = options;
        fopts.num_threads = 4;
        const auto seq = sched::explore(world, options);
        const auto fr =
            sched::frontier_explore(
                crash_config(*factory, gc.kind, gc.t, gc.budget), *factory,
                testutil::iota_inputs(2), fopts)
                .explore;
        expect_same_census(seq, fr, label + " [frontier]");
        if (fr.violation) {
          testutil::expect_witness_reproduces(world, *fr.violation, label);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Crash witnesses strictly replay and shrink to 1-minimal.

TEST(CrashWitness, ExplorerWitnessReplaysAndShrinksTo1Minimal) {
  const auto factory = proto::machine_factory("recoverable-cas");
  const sched::SimWorld world = make_crash_world(
      *factory, model::FaultKind::kOverriding, 1, 2, /*crash_budget=*/1);

  const auto result = sched::explore(world, {});
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, ViolationKind::kInconsistent);

  const std::vector<Choice>& schedule = result.violation->schedule;
  EXPECT_EQ(sched::classify_schedule(world, schedule),
            ViolationKind::kInconsistent);
  testutil::expect_witness_reproduces(world, *result.violation,
                                      "recoverable-cas crash witness");

  const std::vector<Choice> shrunk =
      sched::shrink_witness(world, schedule, ViolationKind::kInconsistent);
  EXPECT_LE(shrunk.size(), schedule.size());
  EXPECT_EQ(sched::classify_schedule(world, shrunk),
            ViolationKind::kInconsistent);

  // 1-minimality: dropping ANY single choice destroys the violation.
  for (std::size_t i = 0; i < shrunk.size(); ++i) {
    std::vector<Choice> dropped = shrunk;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_NE(sched::classify_schedule(world, dropped),
              ViolationKind::kInconsistent)
        << "witness not 1-minimal: choice " << i << " is removable";
  }

  // The disagreement needs the crash: budget 0 explores clean (pillar 1),
  // so every minimal witness must spend crash budget.
  EXPECT_TRUE(std::any_of(shrunk.begin(), shrunk.end(),
                          [](const Choice& c) { return c.crash; }))
      << "minimal recoverable-cas witness lost its crash step";
}

TEST(CrashWitness, FuzzerFindsRepliesAndShrinksCrashViolation) {
  const auto factory = proto::machine_factory("recoverable-cas");
  const sched::SimWorld world = make_crash_world(
      *factory, model::FaultKind::kOverriding, 1, 2, /*crash_budget=*/1);

  sched::FuzzOptions options;
  options.seed = 0xC0FFEEu;
  options.stop_at_first_violation = true;
  options.shrink = true;
  const auto result = sched::fuzz(world, options);

  ASSERT_TRUE(result.violation.has_value());
  ASSERT_TRUE(result.original_violation.has_value());
  EXPECT_EQ(result.violation->kind, ViolationKind::kInconsistent);
  // Both the raw discovery and the shrunk witness strictly replay.
  EXPECT_EQ(
      sched::classify_schedule(world, result.original_violation->schedule),
      ViolationKind::kInconsistent);
  EXPECT_EQ(sched::classify_schedule(world, result.violation->schedule),
            ViolationKind::kInconsistent);
  EXPECT_LE(result.violation->schedule.size(),
            result.original_violation->schedule.size());
}

// ---------------------------------------------------------------------------
// 4. A recovered process never observes stale locals.

/// Probe program: volatile `st` is set to 7 strictly before the recovery
/// label and never read again, so it is dead at the recovery entry and
/// finalize() accepts it — but its pre-crash value still sits in machine
/// state (and the encoding) at the CAS pause point.  The crash must wipe
/// it; a factory or machine that recycled pre-crash state would leak the
/// 7 into the recovered encoding and corrupt state memoization.
std::shared_ptr<const proto::Program> stale_local_probe_program() {
  proto::ProgramBuilder b("stale-probe");
  const auto st = b.local("st", b.cst(0));
  const auto out = b.persistent("out", b.input());
  const auto r = b.scratch("r");
  b.emit(st);
  b.emit(out);
  b.set(st, b.cst(7));
  const auto retry = b.label();
  b.bind(retry);
  b.recover_at(retry);
  b.cas(r, b.cst(0), 1, b.bottom(), b.ref(out));
  b.halt(b.ref(out));
  return b.finalize();
}

TEST(CrashRecovery, RecoveredProcessNeverObservesStaleLocals) {
  const proto::IrMachineFactory factory(stale_local_probe_program());
  sched::SimConfig config;
  config.num_objects = 1;
  config.kind = model::FaultKind::kNone;
  config.t = 0;
  config.crash_budget = 1;
  sched::SimWorld world(config, factory, {5});

  // Paused at the CAS: st carries its pre-crash value 7 (and nothing
  // else in the encoding is 7 — input is 5, the object holds bottom).
  const auto before = world.encode();
  const auto it = std::find(before.begin(), before.end(), 7u);
  ASSERT_NE(it, before.end());
  const auto st_index =
      static_cast<std::size_t>(std::distance(before.begin(), it));
  EXPECT_EQ(std::count(before.begin(), before.end(), 7u), 1);

  // Take the crash branch.
  const auto enabled = world.enabled();
  const auto crash = std::find_if(enabled.begin(), enabled.end(),
                                  [](const Choice& c) { return c.crash; });
  ASSERT_NE(crash, enabled.end());
  world.apply(*crash);

  // Same layout, but the stale 7 is gone: the recovered process starts
  // from wiped volatile state.
  const auto after = world.encode();
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(after[st_index], 0u);
  EXPECT_EQ(std::count(after.begin(), after.end(), 7u), 0);

  // And the recovered incarnation still finishes and decides its own
  // (persistent) proposal.
  while (!world.terminal()) {
    const auto choices = world.enabled();
    ASSERT_FALSE(choices.empty());
    const auto clean =
        std::find_if(choices.begin(), choices.end(),
                     [](const Choice& c) { return !c.fault && !c.crash; });
    ASSERT_NE(clean, choices.end());
    world.apply(*clean);
  }
  const auto decisions = world.decisions();
  ASSERT_EQ(decisions.size(), 1u);
  ASSERT_TRUE(decisions[0].has_value());
  EXPECT_EQ(*decisions[0], 5u);
}

TEST(CrashRecovery, FinalizeRejectsVolatileLocalLiveAtRecovery) {
  proto::ProgramBuilder b("stale-read");
  const auto st = b.local("st", b.cst(0));
  const auto out = b.persistent("out", b.input());
  const auto r = b.scratch("r");
  b.emit(st);
  b.emit(out);
  b.set(st, b.cst(7));
  const auto retry = b.label();
  b.bind(retry);
  b.recover_at(retry);
  b.cas(r, b.cst(0), 1, b.bottom(), b.ref(out));
  // Reading st after the recovery label makes it live at the entry: a
  // recovered process would observe 0 where the first incarnation saw 7.
  b.halt(b.add(b.ref(out), b.ref(st)));
  EXPECT_THROW((void)b.finalize(), std::invalid_argument);
}

// Exhaustive crash-only sanity: recoverable protocols stay correct under
// crashes alone, at budgets 1 and 2 (complete proofs, no violation).
TEST(CrashRecovery, RecoverableProtocolsHoldUnderCrashesAlone) {
  for (const char* protocol : {"recoverable-cas", "recoverable-staged"}) {
    const auto factory = proto::machine_factory(protocol);
    for (const std::uint32_t budget : {1u, 2u}) {
      const sched::SimWorld world =
          make_crash_world(*factory, model::FaultKind::kNone, 0, 2, budget);
      ExploreOptions options;
      options.stop_at_first_violation = false;
      const auto result = sched::explore(world, options);
      EXPECT_TRUE(result.complete) << protocol << " budget=" << budget;
      EXPECT_EQ(result.violations_found, 0u)
          << protocol << " budget=" << budget;
    }
  }
}

}  // namespace
}  // namespace ff
