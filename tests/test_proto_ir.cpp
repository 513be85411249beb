// Differential golden suite for the single-source protocol IR.
//
// The retired hand-written machines and thread protocols (tests/legacy/)
// are the oracles: for every protocol the IR definition must be
// OBSERVATIONALLY IDENTICAL, and the bar is deliberately bit-for-bit —
//   * a lockstep walk of the full reachable state space asserts the
//     SimWorld encodings (and the enabled choice sets) match at EVERY
//     state, so censuses cannot agree by coincidence;
//   * full-space censuses must match with the reductions on and off;
//   * a machine-level lockstep drives both StepMachines through a value
//     domain and additionally pins the DYNAMIC half of encode()
//     soundness: the encoding determines the paused pc and pending op
//     (the static half is finalize()'s liveness proof, DESIGN.md §3e);
//   * real-thread stress campaigns must reproduce the legacy verdicts
//     seed for seed (full report equality where the step counts are
//     schedule-independent);
//   * the registry's DERIVED object/register counts must equal the
//     legacy factories' hand-maintained constants — this pins the fix
//     for AnnounceCas/Tas-style factories silently inheriting
//     registers_used() = 0.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "explore_diff.hpp"
#include "faults/bank.hpp"
#include "faults/policy.hpp"
#include "faults/relaxed_queue.hpp"
#include "legacy/f_plus_one.hpp"
#include "legacy/machines.hpp"
#include "legacy/retry_silent.hpp"
#include "legacy/single_cas.hpp"
#include "legacy/staged.hpp"
#include "legacy/tas.hpp"
#include "model/tolerance.hpp"
#include "objects/atomic_cas.hpp"
#include "objects/register.hpp"
#include "proto/queue_client.hpp"
#include "proto/registry.hpp"
#include "runtime/stress.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff {
namespace {

using model::FaultKind;
using model::kUnbounded;
using sched::SimConfig;
using sched::SimWorld;

// ---------------------------------------------------------------------------
// The legacy-vs-IR pairing grid.
// ---------------------------------------------------------------------------

struct DiffCase {
  std::string label;
  std::shared_ptr<const sched::MachineFactory> legacy;
  std::string proto_name;
  proto::Params params;
  FaultKind kind = FaultKind::kOverriding;
  std::uint32_t t = 1;
  std::uint32_t n = 2;
};

std::vector<DiffCase> diff_grid() {
  using consensus::AnnounceCasFactory;
  using consensus::FPlusOneFactory;
  using consensus::RetrySilentFactory;
  using consensus::SingleCasFactory;
  using consensus::StagedFactory;
  using consensus::TasFactory;

  std::vector<DiffCase> grid;
  const auto tag = [](std::uint32_t t) {
    return t == kUnbounded ? std::string("inf") : std::to_string(t);
  };

  for (const std::uint32_t n : {2u, 3u}) {
    for (const FaultKind kind : {FaultKind::kOverriding, FaultKind::kSilent}) {
      for (const std::uint32_t t : {1u, kUnbounded}) {
        grid.push_back({"single-cas/" + std::string(model::to_string(kind)) +
                            "/t" + tag(t) + "/n" + std::to_string(n),
                        std::make_shared<SingleCasFactory>(), "single-cas",
                        {}, kind, t, n});
      }
    }
  }
  grid.push_back({"single-cas/arbitrary/t1/n2",
                  std::make_shared<SingleCasFactory>(), "single-cas", {},
                  FaultKind::kArbitrary, 1, 2});
  grid.push_back({"single-cas/nonresponsive/t1/n2",
                  std::make_shared<SingleCasFactory>(), "single-cas", {},
                  FaultKind::kNonresponsive, 1, 2});

  for (const auto& [t, n] :
       std::vector<std::array<std::uint32_t, 2>>{{1, 2}, {kUnbounded, 2},
                                                 {1, 3}}) {
    grid.push_back({"fp1-k2/overriding/t" + tag(t) + "/n" + std::to_string(n),
                    std::make_shared<FPlusOneFactory>(2), "f-plus-one",
                    proto::Params{{"k", 2}}, FaultKind::kOverriding, t, n});
  }

  for (const auto& [f, t, n] : std::vector<std::array<std::uint32_t, 3>>{
           {1, 1, 2}, {1, 1, 3}, {2, 1, 2}, {1, 2, 2}}) {
    grid.push_back({"staged-f" + std::to_string(f) + "t" + std::to_string(t) +
                        "/overriding/n" + std::to_string(n),
                    std::make_shared<StagedFactory>(f, t), "staged",
                    proto::Params{{"f", f}, {"t", t}}, FaultKind::kOverriding,
                    t, n});
  }

  for (const auto& [t, n] : std::vector<std::array<std::uint32_t, 2>>{
           {1, 2}, {1, 3}, {kUnbounded, 2}}) {
    grid.push_back({"retry-silent/silent/t" + tag(t) + "/n" +
                        std::to_string(n),
                    std::make_shared<RetrySilentFactory>(), "retry-silent",
                    {}, FaultKind::kSilent, t, n});
  }

  for (const std::uint32_t n : {2u, 3u}) {
    grid.push_back({"announce/overriding/t1/n" + std::to_string(n),
                    std::make_shared<AnnounceCasFactory>(n), "announce-cas",
                    proto::Params{{"n", n}}, FaultKind::kOverriding, 1, n});
    grid.push_back({"tas/overriding/t1/n" + std::to_string(n),
                    std::make_shared<TasFactory>(n), "tas",
                    proto::Params{{"n", n}}, FaultKind::kOverriding, 1, n});
  }
  grid.push_back({"tas/silent/t1/n2", std::make_shared<TasFactory>(2), "tas",
                  proto::Params{{"n", 2}}, FaultKind::kSilent, 1, 2});
  return grid;
}

SimWorld make_world(const sched::MachineFactory& factory, FaultKind kind,
                    std::uint32_t t, std::uint32_t n) {
  SimConfig config;
  config.num_objects = factory.objects_used();
  config.num_registers = factory.registers_used();
  config.kind = kind;
  config.t = t;
  return SimWorld(config, factory, testutil::iota_inputs(n));
}

// ---------------------------------------------------------------------------
// 1. Lockstep walk: per-state encode() and enabled() equality.
// ---------------------------------------------------------------------------

void lockstep(SimWorld& legacy, SimWorld& ir,
              std::set<std::vector<std::uint64_t>>& visited,
              const std::string& label, std::uint32_t depth) {
  ASSERT_LT(depth, 100'000u) << label;
  const std::vector<std::uint64_t> enc = legacy.encode();
  ASSERT_EQ(enc, ir.encode()) << label << ": encodings diverge";
  if (!visited.insert(enc).second) return;
  ASSERT_LT(visited.size(), 400'000u) << label;

  const std::vector<sched::Choice> choices = legacy.enabled();
  ASSERT_EQ(choices, ir.enabled()) << label << ": enabled sets diverge";
  for (const sched::Choice& choice : choices) {
    SimWorld::StepUndo undo_legacy;
    SimWorld::StepUndo undo_ir;
    legacy.apply_with_undo(choice, undo_legacy);
    ir.apply_with_undo(choice, undo_ir);
    lockstep(legacy, ir, visited, label, depth + 1);
    if (testing::Test::HasFatalFailure()) return;
    ir.undo_step(undo_ir);
    legacy.undo_step(undo_legacy);
  }
}

TEST(ProtoIrDifferential, LockstepEncodeEquality) {
  for (const DiffCase& dc : diff_grid()) {
    SCOPED_TRACE(dc.label);
    const auto ir_factory = proto::machine_factory(dc.proto_name, dc.params);
    SimWorld legacy = make_world(*dc.legacy, dc.kind, dc.t, dc.n);
    SimWorld ir = make_world(*ir_factory, dc.kind, dc.t, dc.n);
    std::set<std::vector<std::uint64_t>> visited;
    lockstep(legacy, ir, visited, dc.label, 0);
    if (testing::Test::HasFatalFailure()) return;
    EXPECT_GE(visited.size(), 2u) << dc.label;
  }
}

// ---------------------------------------------------------------------------
// 2. Census equality, reductions on and off.
// ---------------------------------------------------------------------------

void expect_census_equal(const sched::ExploreResult& legacy,
                         const sched::ExploreResult& ir,
                         const std::string& label) {
  EXPECT_EQ(legacy.states_visited, ir.states_visited) << label;
  EXPECT_EQ(legacy.terminal_states, ir.terminal_states) << label;
  EXPECT_EQ(legacy.violations_found, ir.violations_found) << label;
  EXPECT_EQ(legacy.violations_by_kind, ir.violations_by_kind) << label;
  EXPECT_EQ(legacy.max_depth, ir.max_depth) << label;
  EXPECT_EQ(legacy.complete, ir.complete) << label;
  EXPECT_EQ(legacy.agreed_values, ir.agreed_values) << label;
}

TEST(ProtoIrDifferential, FullCensusMatchesWithAndWithoutReductions) {
  for (const DiffCase& dc : diff_grid()) {
    SCOPED_TRACE(dc.label);
    const auto ir_factory = proto::machine_factory(dc.proto_name, dc.params);
    const SimWorld legacy = make_world(*dc.legacy, dc.kind, dc.t, dc.n);
    const SimWorld ir = make_world(*ir_factory, dc.kind, dc.t, dc.n);
    for (const bool reduce : {true, false}) {
      sched::ExploreOptions options;
      options.stop_at_first_violation = false;
      options.killed_is_violation = dc.kind == FaultKind::kNonresponsive;
      options.symmetry_reduction = reduce;
      const auto legacy_result = sched::explore(legacy, options);
      const auto ir_result = sched::explore(ir, options);
      expect_census_equal(legacy_result, ir_result,
                          dc.label + (reduce ? "/reduced" : "/unreduced"));
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Machine-level lockstep: encoding determines pc and pending op.
// ---------------------------------------------------------------------------

struct OpKey {
  sched::OpType type = sched::OpType::kNone;
  objects::ObjectId object = 0;
  std::uint64_t expected = 0;
  std::uint64_t desired = 0;

  friend bool operator==(const OpKey&, const OpKey&) noexcept = default;
};

OpKey key_of(const sched::PendingOp& op) {
  return OpKey{op.type, op.object, op.expected.raw(), op.desired.raw()};
}

void machine_lockstep(const sched::MachineFactory& legacy_factory,
                      std::shared_ptr<const proto::Program> program,
                      const std::vector<std::uint64_t>& domain,
                      std::uint32_t n, const std::string& label) {
  for (objects::ProcessId pid = 0; pid < n; ++pid) {
    // encode() → (pc, pending op) must be a function per pid: equal
    // encodings may not hide different control states.
    std::map<std::vector<std::uint64_t>,
             std::pair<std::uint32_t, OpKey>> seen;
    for (const std::uint64_t input : {1u, 2u}) {
      std::set<std::vector<std::uint64_t>> visited;
      std::vector<std::pair<std::unique_ptr<sched::StepMachine>,
                            proto::IrMachine>> stack;
      stack.emplace_back(legacy_factory.make(pid, input),
                         proto::IrMachine(program, pid, input));
      while (!stack.empty()) {
        auto [legacy, ir] = std::move(stack.back());
        stack.pop_back();

        std::vector<std::uint64_t> legacy_enc;
        std::vector<std::uint64_t> ir_enc;
        legacy->encode(legacy_enc);
        ir.encode(ir_enc);
        ASSERT_EQ(legacy_enc, ir_enc) << label << " pid=" << pid;
        ASSERT_EQ(legacy->done(), ir.done()) << label << " pid=" << pid;
        if (!visited.insert(ir_enc).second) continue;
        ASSERT_LT(visited.size(), 200'000u) << label;

        const sched::PendingOp op = ir.next_op();
        const auto [it, inserted] = seen.try_emplace(
            ir_enc, std::make_pair(ir.pc(), key_of(op)));
        if (!inserted) {
          EXPECT_EQ(it->second.first, ir.pc())
              << label << ": equal encodings pause at different pcs";
          EXPECT_EQ(it->second.second, key_of(op))
              << label << ": equal encodings request different ops";
        }
        if (ir.done()) {
          EXPECT_EQ(legacy->decision(), ir.decision())
              << label << " pid=" << pid;
          continue;
        }
        const sched::PendingOp legacy_op = legacy->next_op();
        ASSERT_EQ(key_of(legacy_op), key_of(op)) << label << " pid=" << pid;

        // A register write always returns ⊥; reads and CAS results range
        // over the domain.
        const std::vector<std::uint64_t> returns =
            op.type == sched::OpType::kRegWrite
                ? std::vector<std::uint64_t>{model::Value::bottom().raw()}
                : domain;
        for (const std::uint64_t v : returns) {
          auto legacy_clone = legacy->clone();
          proto::IrMachine ir_clone = ir;
          legacy_clone->deliver(model::Value::of(v));
          ir_clone.deliver(model::Value::of(v));
          stack.emplace_back(std::move(legacy_clone), std::move(ir_clone));
        }
      }
    }
  }
}

TEST(ProtoIrDifferential, MachineLockstepAndEncodingDeterminesPc) {
  const std::uint64_t bottom = model::Value::bottom().raw();
  const std::vector<std::uint64_t> plain{bottom, 1, 2};
  std::vector<std::uint64_t> staged{bottom,
                                    model::StagedValue(1, 0).pack().raw(),
                                    model::StagedValue(2, 1).pack().raw(),
                                    model::StagedValue(2, 5).pack().raw()};

  machine_lockstep(consensus::SingleCasFactory{},
                   proto::build_program("single-cas"), plain, 3,
                   "single-cas");
  machine_lockstep(consensus::FPlusOneFactory{2},
                   proto::build_program("f-plus-one"), plain, 2, "fp1-k2");
  machine_lockstep(consensus::RetrySilentFactory{},
                   proto::build_program("retry-silent"), plain, 2,
                   "retry-silent");
  machine_lockstep(consensus::StagedFactory{1, 1},
                   proto::build_program("staged"), staged, 2, "staged-f1t1");
  for (const std::uint32_t n : {2u, 3u}) {
    const proto::Params params{{"n", n}};
    machine_lockstep(consensus::AnnounceCasFactory{n},
                     proto::build_program("announce-cas", params), plain, n,
                     "announce-n" + std::to_string(n));
    machine_lockstep(consensus::TasFactory{n},
                     proto::build_program("tas", params), plain, n,
                     "tas-n" + std::to_string(n));
  }
}

// ---------------------------------------------------------------------------
// 4. Derived counts and names vs. the legacy hand-maintained constants.
// ---------------------------------------------------------------------------

TEST(ProtoIrRegistry, DerivedCountsMatchLegacyFactories) {
  const auto expect_counts = [](const sched::MachineFactory& legacy,
                                const std::string& name,
                                const proto::Params& params) {
    const auto ir = proto::machine_factory(name, params);
    EXPECT_EQ(legacy.objects_used(), ir->objects_used()) << name;
    EXPECT_EQ(legacy.registers_used(), ir->registers_used()) << name;
    EXPECT_EQ(legacy.pid_oblivious(), ir->pid_oblivious()) << name;
    EXPECT_EQ(legacy.name(), ir->name()) << name;
  };
  expect_counts(consensus::SingleCasFactory{}, "single-cas", {});
  expect_counts(consensus::FPlusOneFactory{3}, "f-plus-one",
                proto::Params{{"k", 3}});
  expect_counts(consensus::StagedFactory{2, 1}, "staged",
                proto::Params{{"f", 2}, {"t", 1}});
  expect_counts(consensus::RetrySilentFactory{}, "retry-silent", {});
  // These two are the registers_used() regression: the legacy factories
  // override it explicitly; a factory that forgot inherited the silent
  // default of 0 and the simulator allocated no registers.  The IR
  // derives the count from the operand bounds, so it CANNOT be forgotten.
  expect_counts(consensus::AnnounceCasFactory{3}, "announce-cas",
                proto::Params{{"n", 3}});
  expect_counts(consensus::TasFactory{2}, "tas", proto::Params{{"n", 2}});
}

TEST(ProtoIrRegistry, NamesAreCanonicalAcrossBothDrivers) {
  for (const proto::ProtocolInfo& info :
       proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    SCOPED_TRACE(info.name);
    const auto program = proto::build_program(info.name);
    EXPECT_EQ(info.name, program->name());
    EXPECT_EQ(info.name, proto::machine_factory(info.name)->name());

    std::deque<objects::AtomicCas> objects;
    std::deque<objects::AtomicRegister> registers;
    std::vector<objects::CasObject*> object_ptrs;
    std::vector<objects::AtomicRegister*> register_ptrs;
    for (std::uint32_t i = 0; i < program->num_objects(); ++i) {
      object_ptrs.push_back(&objects.emplace_back(i));
    }
    for (std::uint32_t i = 0; i < program->num_registers(); ++i) {
      register_ptrs.push_back(&registers.emplace_back(i));
    }
    const auto protocol =
        proto::protocol(info.name, {}, object_ptrs, register_ptrs);
    EXPECT_EQ(info.name, protocol->name());
    EXPECT_EQ(program->num_objects(), protocol->objects_used());
  }
}

TEST(ProtoIrRegistry, AliasesResolveAndUnknownNamesThrow) {
  const auto& registry = proto::ProtocolRegistry::instance();
  ASSERT_NE(registry.find("herlihy"), nullptr);
  EXPECT_EQ(registry.find("herlihy")->name, "single-cas");
  ASSERT_NE(registry.find("fp1"), nullptr);
  EXPECT_EQ(registry.find("fp1")->name, "f-plus-one");
  ASSERT_NE(registry.find("announce"), nullptr);
  EXPECT_EQ(registry.find("announce")->name, "announce-cas");
  EXPECT_EQ(registry.find("no-such-protocol"), nullptr);
  EXPECT_EQ(proto::build_program("herlihy")->name(), "single-cas");
  EXPECT_THROW((void)proto::build_program("no-such-protocol"),
               std::invalid_argument);
  EXPECT_THROW((void)proto::machine_factory("queue-client"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// 5. Real-thread stress: verdicts must match the legacy protocols seed
//    for seed.
// ---------------------------------------------------------------------------

runtime::StressOptions stress_options(std::uint32_t n) {
  runtime::StressOptions options;
  options.processes = n;
  options.budget.max_units = 150;
  options.seed = 0xf00d;
  return options;
}

void expect_verdicts_identical(const runtime::StressReport& a,
                               const runtime::StressReport& b,
                               const std::string& label) {
  EXPECT_EQ(a.trials, b.trials) << label;
  EXPECT_EQ(a.ok, b.ok) << label;
  EXPECT_EQ(a.inconsistent, b.inconsistent) << label;
  EXPECT_EQ(a.invalid, b.invalid) << label;
  EXPECT_EQ(a.undecided, b.undecided) << label;
  EXPECT_EQ(a.first_violation, b.first_violation) << label;
}

void expect_reports_identical(const runtime::StressReport& a,
                              const runtime::StressReport& b,
                              const std::string& label) {
  expect_verdicts_identical(a, b, label);
  EXPECT_EQ(a.steps_per_process.count(), b.steps_per_process.count())
      << label;
  EXPECT_DOUBLE_EQ(a.steps_per_process.mean(), b.steps_per_process.mean())
      << label;
  EXPECT_DOUBLE_EQ(a.steps_per_process.min(), b.steps_per_process.min())
      << label;
  EXPECT_DOUBLE_EQ(a.steps_per_process.max(), b.steps_per_process.max())
      << label;
}

TEST(ProtoIrStress, SingleCasFaultFreeReportsMatchExactly) {
  // Exactly one CAS per decide(): the full report, step statistics
  // included, is schedule-independent and must reproduce bit-for-bit.
  for (const std::uint32_t n : {2u, 3u}) {
    objects::AtomicCas legacy_object(0);
    consensus::SingleCasConsensus legacy(legacy_object);
    objects::AtomicCas ir_object(0);
    const auto ir = proto::protocol("single-cas", {}, {&ir_object});
    const auto a = runtime::run_stress(legacy, stress_options(n));
    const auto b = runtime::run_stress(*ir, stress_options(n));
    expect_reports_identical(a, b, "single-cas/n" + std::to_string(n));
    EXPECT_TRUE(b.all_ok());
  }
}

TEST(ProtoIrStress, SingleCasOverridingUnboundedMatchesExactly) {
  // Theorem 4 territory: every CAS faults (overriding, t = ∞) yet two
  // processes still agree, and each decide() is still exactly one CAS.
  const auto make_bank = [] {
    faults::FaultyCasBank::Options options;
    options.objects = 1;
    options.kind = FaultKind::kOverriding;
    options.f = 1;
    options.t = kUnbounded;
    return options;
  };
  static faults::AlwaysFault always;
  auto legacy_options = make_bank();
  legacy_options.policy = &always;
  faults::FaultyCasBank legacy_bank(legacy_options);
  consensus::SingleCasConsensus legacy(*legacy_bank.raw()[0]);

  auto ir_options = make_bank();
  ir_options.policy = &always;
  faults::FaultyCasBank ir_bank(ir_options);
  const auto ir = proto::protocol("single-cas", {}, ir_bank.raw());

  const auto setup_legacy = [&](std::uint64_t) { legacy_bank.reset(); };
  const auto setup_ir = [&](std::uint64_t) { ir_bank.reset(); };
  const auto a = runtime::run_stress(legacy, stress_options(2), setup_legacy);
  const auto b = runtime::run_stress(*ir, stress_options(2), setup_ir);
  expect_reports_identical(a, b, "single-cas/overriding-inf");
  EXPECT_TRUE(b.all_ok());
}

TEST(ProtoIrStress, FPlusOneAndTasFaultFreeReportsMatchExactly) {
  {
    objects::AtomicCas legacy_o0(0);
    objects::AtomicCas legacy_o1(1);
    consensus::FPlusOneConsensus legacy({&legacy_o0, &legacy_o1});
    objects::AtomicCas ir_o0(0);
    objects::AtomicCas ir_o1(1);
    const auto ir = proto::protocol("f-plus-one", proto::Params{{"k", 2}},
                                    {&ir_o0, &ir_o1});
    const auto a = runtime::run_stress(legacy, stress_options(3));
    const auto b = runtime::run_stress(*ir, stress_options(3));
    expect_reports_identical(a, b, "f-plus-one/n3");
    EXPECT_TRUE(b.all_ok());
  }
  {
    objects::AtomicCas legacy_bit(0);
    objects::AtomicRegister legacy_a0(0);
    objects::AtomicRegister legacy_a1(1);
    consensus::TasConsensus legacy(legacy_bit, legacy_a0, legacy_a1);
    objects::AtomicCas ir_bit(0);
    objects::AtomicRegister ir_a0(0);
    objects::AtomicRegister ir_a1(1);
    const auto ir = proto::protocol("tas", proto::Params{{"n", 2}}, {&ir_bit},
                                    {&ir_a0, &ir_a1});
    const auto a = runtime::run_stress(legacy, stress_options(2));
    const auto b = runtime::run_stress(*ir, stress_options(2));
    expect_reports_identical(a, b, "tas/n2");
    EXPECT_TRUE(b.all_ok());
  }
}

TEST(ProtoIrStress, StagedAndRetrySilentVerdictsMatchSeedForSeed) {
  // Step counts here depend on the OS interleaving, so only the verdict
  // counters are schedule-independent; both campaigns must be all-ok on
  // these tolerance configurations.
  {
    objects::AtomicCas legacy_object(0);
    consensus::StagedConsensus legacy({&legacy_object}, 1);
    objects::AtomicCas ir_object(0);
    const auto ir = proto::protocol(
        "staged", proto::Params{{"f", 1}, {"t", 1}}, {&ir_object});
    const auto a = runtime::run_stress(legacy, stress_options(2));
    const auto b = runtime::run_stress(*ir, stress_options(2));
    expect_verdicts_identical(a, b, "staged-f1t1");
    EXPECT_TRUE(a.all_ok());
    EXPECT_TRUE(b.all_ok());
  }
  {
    static faults::PeriodicFault every_other(2);
    const auto make_bank = [] {
      faults::FaultyCasBank::Options options;
      options.objects = 1;
      options.kind = FaultKind::kSilent;
      options.f = 1;
      options.t = 1;
      return options;
    };
    auto legacy_options = make_bank();
    legacy_options.policy = &every_other;
    faults::FaultyCasBank legacy_bank(legacy_options);
    consensus::RetrySilentConsensus legacy(*legacy_bank.raw()[0]);
    auto ir_options = make_bank();
    ir_options.policy = &every_other;
    faults::FaultyCasBank ir_bank(ir_options);
    const auto ir = proto::protocol("retry-silent", {}, ir_bank.raw());

    const auto setup_legacy = [&](std::uint64_t) { legacy_bank.reset(); };
    const auto setup_ir = [&](std::uint64_t) { ir_bank.reset(); };
    const auto a =
        runtime::run_stress(legacy, stress_options(2), setup_legacy);
    const auto b = runtime::run_stress(*ir, stress_options(2), setup_ir);
    expect_verdicts_identical(a, b, "retry-silent/silent-t1");
    EXPECT_TRUE(a.all_ok());
    EXPECT_TRUE(b.all_ok());
  }
}

TEST(ProtoIrStress, AnnounceCasFaultFreeIsCorrectUnderThreads) {
  // No legacy thread twin exists for announce-cas (it was simulator-only
  // before the IR), so this pins absolute correctness instead: all-ok
  // and exactly one CAS per decide().
  objects::AtomicCas bit(0);
  objects::AtomicRegister a0(0);
  objects::AtomicRegister a1(1);
  objects::AtomicRegister a2(2);
  const auto ir = proto::protocol("announce-cas", proto::Params{{"n", 3}},
                                  {&bit}, {&a0, &a1, &a2});
  const auto report = runtime::run_stress(*ir, stress_options(3));
  EXPECT_TRUE(report.all_ok());
  EXPECT_DOUBLE_EQ(report.steps_per_process.mean(), 1.0);
}

// ---------------------------------------------------------------------------
// 6. Queue client via the same IR machinery.
// ---------------------------------------------------------------------------

TEST(ProtoIrQueue, QueueClientRunsAgainstRelaxedQueue) {
  const auto program =
      proto::build_program("queue-client", proto::Params{{"ops", 16}});
  EXPECT_TRUE(program->uses_queue());
  faults::NeverFault never;
  faults::RelaxedQueue queue(0, /*k=*/2, &never, /*budget=*/nullptr);
  const auto result = proto::run_queue_client(*program, queue);
  EXPECT_EQ(result.enqueues, 16u);
  EXPECT_EQ(result.dequeues, 16u);
  ASSERT_EQ(result.dequeued.size(), 16u);
  for (std::size_t i = 0; i < result.dequeued.size(); ++i) {
    ASSERT_TRUE(result.dequeued[i].has_value()) << i;
    EXPECT_EQ(*result.dequeued[i], i + 1) << i;  // fault-free FIFO order
  }
  EXPECT_THROW((void)proto::protocol("queue-client", {}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ff
