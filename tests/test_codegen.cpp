// Differential golden suite for the ffgen-generated native machines.
//
// The IrMachine interpreter is the oracle (itself differentially pinned
// against the retired hand-written machines by test_proto_ir), and the
// bar is again bit-for-bit:
//   * proto::machine_factory() must actually select a generated machine
//     for every simulable registry protocol at its default parameters —
//     a silent fallback to the interpreter would turn every census
//     "match" below into a tautology;
//   * for every registry protocol × fault budget × crash budget grid
//     point, the full census (states, violations, witnesses, agreed
//     values) from the generated machine equals the interpreter's, under
//     the sequential AND the frontier explorer, reductions on and off;
//   * a step-level lockstep property test replays 10k+ seeded random
//     schedules simultaneously on generated machines and on IrMachine
//     oracles, asserting equal encoded states after every single step
//     (divergence surfaces steps, not censuses, late);
//   * shrunk violation witnesses found on the interpreter strict-replay
//     on the generated path with per-step encoding equality;
//   * the stale-pre-size regression: ExploreResult::table_grows pins the
//     fingerprint-table rehash count — stale expected_states hints cost
//     exactly the doublings the sizing rule predicts, and an exact hint
//     costs zero.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "model/tolerance.hpp"
#include "proto/fingerprint.hpp"
#include "proto/genapi.hpp"
#include "proto/machine.hpp"
#include "proto/registry.hpp"
#include "sched/explore_common.hpp"
#include "sched/explorer.hpp"
#include "sched/frontier_explorer.hpp"
#include "sched/sim_world.hpp"
#include "util/rng.hpp"

namespace ff {
namespace {

using model::FaultKind;
using model::kUnbounded;
using sched::SimConfig;
using sched::SimWorld;

// ---------------------------------------------------------------------------
// The generated-vs-interpreted grid: every simulable registry protocol,
// fault budgets t ∈ {1, ∞}, crash budgets {0} (+ {1, 2} where the
// protocol has a recovery entry).
// ---------------------------------------------------------------------------

struct CodegenCase {
  std::string label;
  std::string protocol;
  proto::Params params;
  FaultKind kind = FaultKind::kOverriding;
  std::uint32_t t = 1;
  std::uint32_t n = 2;
  std::uint32_t crash_budget = 0;
};

std::vector<std::uint64_t> iota_inputs(std::uint32_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = i + 1;
  return v;
}

std::vector<CodegenCase> codegen_grid() {
  std::vector<CodegenCase> grid;
  const auto tag = [](std::uint32_t t) {
    return t == kUnbounded ? std::string("inf") : std::to_string(t);
  };
  for (const proto::ProtocolInfo& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    const auto program = proto::build_program(info.name);
    const std::vector<std::uint32_t> crash_budgets =
        program->has_recovery() ? std::vector<std::uint32_t>{0, 1, 2}
                                : std::vector<std::uint32_t>{0};
    for (const std::uint32_t t : {1u, kUnbounded}) {
      for (const std::uint32_t cb : crash_budgets) {
        grid.push_back({info.name + "/overriding/t" + tag(t) + "/n2/cb" +
                            std::to_string(cb),
                        info.name, proto::Params{}, FaultKind::kOverriding, t,
                        2, cb});
      }
    }
    grid.push_back({info.name + "/silent/t1/n2", info.name, proto::Params{},
                    FaultKind::kSilent, 1, 2, 0});
  }
  // Non-default parameterizations from the generation grid.
  grid.push_back({"staged-f1t2/overriding/t2/n2", "staged",
                  proto::Params{{"f", 1}, {"t", 2}}, FaultKind::kOverriding, 2,
                  2, 0});
  grid.push_back({"staged-f2t1/overriding/t1/n3", "staged",
                  proto::Params{{"f", 2}, {"t", 1}}, FaultKind::kOverriding, 1,
                  3, 0});
  grid.push_back({"fp1-k3/overriding/tinf/n2", "f-plus-one",
                  proto::Params{{"k", 3}}, FaultKind::kOverriding, kUnbounded,
                  2, 0});
  grid.push_back({"tas-n3/overriding/t1/n3", "tas", proto::Params{{"n", 3}},
                  FaultKind::kOverriding, 1, 3, 0});
  grid.push_back({"announce-n3/overriding/t1/n3", "announce-cas",
                  proto::Params{{"n", 3}}, FaultKind::kOverriding, 1, 3, 0});
  grid.push_back({"rstaged-f1t2/overriding/t2/n2/cb1", "recoverable-staged",
                  proto::Params{{"f", 1}, {"t", 2}}, FaultKind::kOverriding, 2,
                  2, 1});
  return grid;
}

SimConfig make_config(const sched::MachineFactory& factory,
                      const CodegenCase& cc) {
  SimConfig config;
  config.num_objects = factory.objects_used();
  config.num_registers = factory.registers_used();
  config.kind = cc.kind;
  config.t = cc.t;
  config.crash_budget = cc.crash_budget;
  return config;
}

SimWorld make_world(const sched::MachineFactory& factory,
                    const CodegenCase& cc) {
  return SimWorld(make_config(factory, cc), factory, iota_inputs(cc.n));
}

void expect_census_equal(const sched::ExploreResult& oracle,
                         const sched::ExploreResult& generated,
                         const std::string& label) {
  EXPECT_EQ(oracle.states_visited, generated.states_visited) << label;
  EXPECT_EQ(oracle.terminal_states, generated.terminal_states) << label;
  EXPECT_EQ(oracle.violations_found, generated.violations_found) << label;
  EXPECT_EQ(oracle.violations_by_kind, generated.violations_by_kind) << label;
  EXPECT_EQ(oracle.max_depth, generated.max_depth) << label;
  EXPECT_EQ(oracle.complete, generated.complete) << label;
  EXPECT_EQ(oracle.agreed_values, generated.agreed_values) << label;
}

// ---------------------------------------------------------------------------
// 0. Selection: the generated machines are actually in play.
// ---------------------------------------------------------------------------

TEST(Codegen, GeneratedFactorySelectedForEveryRegistryProtocol) {
  std::uint32_t simulable = 0;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    ++simulable;
    const auto factory = proto::machine_factory(info.name);
    const auto* generated =
        dynamic_cast<const proto::gen::GenMachineFactory*>(factory.get());
    ASSERT_NE(generated, nullptr)
        << info.name << ": default parameters must hit the generated table";
    EXPECT_EQ(generated->entry().fingerprint,
              proto::program_fingerprint(*generated->program()))
        << info.name;
    // The oracle accessor must stay on the interpreter.
    const auto oracle = proto::machine_factory_interpreted(info.name);
    EXPECT_NE(dynamic_cast<const proto::IrMachineFactory*>(oracle.get()),
              nullptr)
        << info.name;
    // Factory metadata must agree between the two paths.
    EXPECT_EQ(factory->name(), oracle->name()) << info.name;
    EXPECT_EQ(factory->objects_used(), oracle->objects_used()) << info.name;
    EXPECT_EQ(factory->registers_used(), oracle->registers_used())
        << info.name;
    EXPECT_EQ(factory->pid_oblivious(), oracle->pid_oblivious()) << info.name;
  }
  EXPECT_GE(simulable, 8u);
}

TEST(Codegen, OffGridParameterizationFallsBackToInterpreter) {
  // k = 7 is outside the generation grid: selection must fall back to
  // the interpreter, never mis-bind a different parameterization.
  const auto factory =
      proto::machine_factory("f-plus-one", proto::Params{{"k", 7}});
  EXPECT_EQ(dynamic_cast<const proto::gen::GenMachineFactory*>(factory.get()),
            nullptr);
  EXPECT_NE(dynamic_cast<const proto::IrMachineFactory*>(factory.get()),
            nullptr);
  const auto program = proto::build_program("f-plus-one", {{"k", 7}});
  EXPECT_EQ(proto::gen::find_generated(proto::program_fingerprint(*program)),
            nullptr);
}

// ---------------------------------------------------------------------------
// 1. Full-census equality, sequential explorer, reductions on and off.
// ---------------------------------------------------------------------------

TEST(Codegen, FullCensusMatchesOracleSequential) {
  for (const CodegenCase& cc : codegen_grid()) {
    SCOPED_TRACE(cc.label);
    const auto generated = proto::machine_factory(cc.protocol, cc.params);
    const auto oracle =
        proto::machine_factory_interpreted(cc.protocol, cc.params);
    ASSERT_NE(
        dynamic_cast<const proto::gen::GenMachineFactory*>(generated.get()),
        nullptr)
        << cc.label << ": grid case must exercise a generated machine";
    const SimWorld gen_world = make_world(*generated, cc);
    const SimWorld oracle_world = make_world(*oracle, cc);
    for (const bool reduce : {true, false}) {
      sched::ExploreOptions options;
      options.stop_at_first_violation = false;
      options.symmetry_reduction = reduce;
      const auto oracle_result = sched::explore(oracle_world, options);
      const auto gen_result = sched::explore(gen_world, options);
      expect_census_equal(oracle_result, gen_result,
                          cc.label + (reduce ? "/reduced" : "/unreduced"));
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Full-census equality under the frontier explorer.  Its lane arena
//    steps whatever machines the factory makes, so the oracle side runs
//    IrMachines end to end.
// ---------------------------------------------------------------------------

TEST(Codegen, FullCensusMatchesOracleFrontier) {
  for (const CodegenCase& cc : codegen_grid()) {
    SCOPED_TRACE(cc.label);
    const auto generated = proto::machine_factory(cc.protocol, cc.params);
    const auto oracle =
        proto::machine_factory_interpreted(cc.protocol, cc.params);
    for (const bool reduce : {true, false}) {
      sched::FrontierExploreOptions options;
      options.explore.stop_at_first_violation = false;
      options.explore.symmetry_reduction = reduce;
      options.num_threads = 2;
      const auto run = [&](const sched::MachineFactory& factory) {
        return sched::frontier_explore(make_config(factory, cc), factory,
                                       iota_inputs(cc.n), options);
      };
      const auto oracle_result = run(*oracle);
      const auto gen_result = run(*generated);
      expect_census_equal(oracle_result.explore, gen_result.explore,
                          cc.label + (reduce ? "/frontier-reduced"
                                             : "/frontier-unreduced"));
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Step-level lockstep: 10k+ seeded random schedules on generated
//    machines vs. IrMachine oracles, equal encodes every step.
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

/// Plausible delivered values: ⊥, small plain values, staged packs.
std::uint64_t domain_value(std::uint64_t r) {
  static const std::uint64_t kDomain[] = {
      0xFFFFFFFFFFFFFFFFull,         // ⊥
      0,          1,           2,
      3,          (1ull << 32) | 1,  // stage 1, value 1
      (1ull << 32) | 2,              // stage 1, value 2
      (2ull << 32) | 1,              // stage 2, value 1
      (3ull << 32) | 2,              // stage 3, value 2
  };
  return kDomain[r % (sizeof(kDomain) / sizeof(kDomain[0]))];
}

TEST(Codegen, ScalarLockstepTenThousandSeededSchedules) {
  constexpr std::size_t kLanes = 64;
  constexpr std::size_t kRounds = 20;
  constexpr std::size_t kMaxSteps = 64;
  std::size_t schedules = 0;

  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    SCOPED_TRACE(info.name);
    const auto program = proto::build_program(info.name);
    const auto generated = proto::machine_factory(info.name);
    ASSERT_NE(
        dynamic_cast<const proto::gen::GenMachineFactory*>(generated.get()),
        nullptr)
        << info.name;

    for (std::size_t round = 0; round < kRounds; ++round) {
      std::vector<std::unique_ptr<sched::StepMachine>> machines;
      std::vector<proto::IrMachine> oracle;
      machines.reserve(kLanes);
      oracle.reserve(kLanes);
      const std::uint64_t seed =
          util::mix64(0x5eedull ^ (round << 8) ^
                      proto::program_fingerprint(*program));
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const auto pid = static_cast<objects::ProcessId>(lane % 4);
        const std::uint64_t input = 1 + (util::mix64(seed ^ lane) % 3);
        machines.push_back(generated->make(pid, input));
        oracle.emplace_back(program, pid, input);
        ++schedules;
      }

      for (std::size_t step = 0; step < kMaxSteps; ++step) {
        // Per-step equality for every lane: done, decision, pending op
        // and the full encoded state.
        bool all_done = true;
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          const sched::StepMachine& m = *machines[lane];
          ASSERT_EQ(m.done(), oracle[lane].done())
              << "round " << round << " step " << step << " lane " << lane;
          if (oracle[lane].done()) {
            ASSERT_EQ(m.decision(), oracle[lane].decision())
                << "round " << round << " step " << step << " lane " << lane;
          } else {
            all_done = false;
            ASSERT_EQ(key_of(m.next_op()), key_of(oracle[lane].next_op()))
                << "round " << round << " step " << step << " lane " << lane;
          }
          std::vector<std::uint64_t> gen_enc;
          std::vector<std::uint64_t> oracle_enc;
          m.encode(gen_enc);
          oracle[lane].encode(oracle_enc);
          ASSERT_EQ(gen_enc, oracle_enc)
              << "round " << round << " step " << step << " lane " << lane;
        }
        if (all_done) break;

        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          if (oracle[lane].done()) continue;
          const model::Value returned = model::Value::of(
              domain_value(util::mix64(seed ^ (step << 20) ^ (lane << 8))));
          machines[lane]->deliver(returned);
          oracle[lane].deliver(returned);
        }
      }
    }
  }
  EXPECT_GE(schedules, 10'000u);
}

/// Scalar crash lockstep: generated machines must reproduce the
/// interpreter's crash semantics (volatile wipe, persistent survival,
/// recovery re-entry) step for step.
TEST(Codegen, CrashLockstepOnRecoverableProtocols) {
  for (const std::string name : {"recoverable-cas", "recoverable-staged"}) {
    SCOPED_TRACE(name);
    const auto generated = proto::machine_factory(name);
    const auto program = proto::build_program(name);
    ASSERT_NE(
        dynamic_cast<const proto::gen::GenMachineFactory*>(generated.get()),
        nullptr);
    for (std::uint64_t run = 0; run < 500; ++run) {
      const std::uint64_t seed = util::mix64(0xc4a5ull ^ run);
      const auto pid = static_cast<objects::ProcessId>(run % 3);
      const std::uint64_t input = 1 + run % 3;
      auto gen_machine = generated->make(pid, input);
      proto::IrMachine oracle(program, pid, input);
      for (std::size_t step = 0; step < 48; ++step) {
        ASSERT_EQ(gen_machine->done(), oracle.done())
            << "run " << run << " step " << step;
        std::vector<std::uint64_t> a;
        std::vector<std::uint64_t> b;
        gen_machine->encode(a);
        oracle.encode(b);
        ASSERT_EQ(a, b) << "run " << run << " step " << step;
        ASSERT_EQ(gen_machine->can_crash(), oracle.can_crash())
            << "run " << run << " step " << step;
        if (oracle.done()) {
          ASSERT_EQ(gen_machine->decision(), oracle.decision());
          break;
        }
        const std::uint64_t r = util::mix64(seed ^ (step << 8));
        if (r % 4 == 0 && oracle.can_crash()) {
          gen_machine->crash();
          oracle.crash();
        } else {
          ASSERT_EQ(key_of(gen_machine->next_op()), key_of(oracle.next_op()));
          const std::uint64_t v = domain_value(r >> 8);
          gen_machine->deliver(model::Value::of(v));
          oracle.deliver(model::Value::of(v));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Witness strict replay: shrunk witnesses found on the interpreter
//    replay on the generated path with per-step world-encoding equality.
// ---------------------------------------------------------------------------

TEST(Codegen, ShrunkWitnessesStrictReplayOnGeneratedPath) {
  // Configurations where the fault budget exceeds the protocol's
  // tolerance, so a violation witness exists.
  std::vector<CodegenCase> violating = {
      // Figure 1 at n = 3: one overriding fault defeats single-CAS.
      {"single-cas/overriding/t1/n3", "single-cas", proto::Params{},
       FaultKind::kOverriding, 1, 3, 0},
      {"staged-f1t1/overriding/t1/n3", "staged",
       proto::Params{{"f", 1}, {"t", 1}}, FaultKind::kOverriding, 1, 3, 0},
      {"fp1-k2/overriding/tinf/n3", "f-plus-one", proto::Params{{"k", 2}},
       FaultKind::kOverriding, kUnbounded, 3, 0},
  };
  std::size_t replayed = 0;
  for (const CodegenCase& cc : violating) {
    SCOPED_TRACE(cc.label);
    const auto generated = proto::machine_factory(cc.protocol, cc.params);
    const auto oracle =
        proto::machine_factory_interpreted(cc.protocol, cc.params);
    const SimWorld oracle_world = make_world(*oracle, cc);
    const SimWorld gen_world = make_world(*generated, cc);

    const auto shortest = sched::find_shortest_violation(oracle_world);
    if (!shortest.violation) continue;  // tolerant after all: nothing to do
    ++replayed;

    // Strict replay: identical world encodings after EVERY step of the
    // shrunk witness, not just an equal final verdict.
    SimWorld oracle_replay = oracle_world;
    SimWorld gen_replay = gen_world;
    ASSERT_EQ(oracle_replay.encode(), gen_replay.encode()) << cc.label;
    for (std::size_t i = 0; i < shortest.violation->schedule.size(); ++i) {
      oracle_replay.apply(shortest.violation->schedule[i]);
      gen_replay.apply(shortest.violation->schedule[i]);
      ASSERT_EQ(oracle_replay.encode(), gen_replay.encode())
          << cc.label << ": diverged at witness step " << i;
    }
    EXPECT_TRUE(gen_replay.terminal()) << cc.label;
    // Same decisions at the violating terminal.
    const auto oracle_decisions = oracle_replay.decisions();
    const auto gen_decisions = gen_replay.decisions();
    ASSERT_EQ(oracle_decisions.size(), gen_decisions.size()) << cc.label;
    for (std::size_t p = 0; p < oracle_decisions.size(); ++p) {
      EXPECT_EQ(oracle_decisions[p], gen_decisions[p]) << cc.label;
    }
  }
  EXPECT_GE(replayed, 2u) << "the violating grid lost its violations";
}

// ---------------------------------------------------------------------------
// 5. Pre-sizing regression: table_grows pins the rehash count.
// ---------------------------------------------------------------------------

/// Replays FlatFpMap's sizing rule: initial capacity from the hint
/// (power of two, < 70% load), then one doubling per grow() while the
/// census exceeds the load limit.
std::uint64_t expected_grows(std::uint64_t hint, std::uint64_t states) {
  std::uint64_t cap = 16;
  while (cap * 7 < hint * 10) cap <<= 1;
  std::uint64_t grows = 0;
  while ((states + 1) * 10 > cap * 7) {
    cap <<= 1;
    ++grows;
  }
  return grows;
}

TEST(Codegen, TableHintTrustsExactLargeHints) {
  sched::ExploreOptions options;
  options.expected_states = std::uint64_t{1} << 25;
  // The old cap (2^24) silently halved exact large hints, forcing a
  // mid-census rehash right after a run had measured the true size.
  EXPECT_EQ(sched::detail::table_hint(options),
            std::size_t{1} << 25);
  options.expected_states = std::uint64_t{1} << 27;
  EXPECT_EQ(sched::detail::table_hint(options), std::size_t{1} << 26);
  options.expected_states = 0;
  options.max_states = 1 << 20;
  EXPECT_EQ(sched::detail::table_hint(options), std::size_t{1} << 16);
}

TEST(Codegen, StalePreSizeRehashesExactlyAsPredictedAndExactHintDoesNot) {
  const auto factory = proto::machine_factory("staged", {{"f", 1}, {"t", 1}});
  SimConfig config;
  config.num_objects = factory->objects_used();
  config.num_registers = factory->registers_used();
  config.kind = FaultKind::kOverriding;
  config.t = 1;
  const SimWorld world(config, *factory, iota_inputs(3));

  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  options.symmetry_reduction = false;

  // Stale hint: a prior (smaller) run's census size.
  options.expected_states = 1024;
  const auto stale = sched::explore(world, options);
  ASSERT_TRUE(stale.complete);
  EXPECT_EQ(stale.table_grows,
            expected_grows(1024, stale.states_visited));
  EXPECT_GT(stale.table_grows, 0u)
      << "census too small to force a rehash — grow the instance";

  // Exact hint: the batched-census path (pools size columns the same
  // way) must not rehash at all.
  options.expected_states = stale.states_visited;
  const auto exact = sched::explore(world, options);
  ASSERT_TRUE(exact.complete);
  EXPECT_EQ(exact.states_visited, stale.states_visited);
  EXPECT_EQ(exact.table_grows, 0u);
}

}  // namespace
}  // namespace ff
