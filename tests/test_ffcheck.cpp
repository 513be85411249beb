// ffcheck analyzer suite (ctest label `analysis`).
//
// Three layers:
//   * certificate tests — positive AND negative fixtures per analysis
//     A1–A5.  Negative fixtures are built with Validate::kSyntaxOnly
//     (finalize(kFull) would refuse to construct them), which is exactly
//     the point: ffcheck must be demonstrably able to REJECT a program
//     violating each obligation, with the certificate naming the precise
//     op — including the encode()-layout perturbation regression below;
//   * the A2 pruning differential — for every simulable registry
//     protocol × fault kind × crash budget, the census with
//     proved-immune overriding branches skipped must be bit-identical
//     to the brute-force census, under the sequential AND the frontier
//     explorer.  A proved immunity must also actually FIRE (tas);
//   * report shape — the --json rendering is deterministic and carries
//     the per-analysis verdicts and certificates tools consume.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "model/fault_kind.hpp"
#include "proto/analysis/analysis.hpp"
#include "proto/ir.hpp"
#include "proto/machine.hpp"
#include "proto/registry.hpp"
#include "sched/explorer.hpp"
#include "sched/facts.hpp"
#include "sched/frontier_explorer.hpp"
#include "sched/sim_world.hpp"
#include "util/json.hpp"

namespace ff {
namespace {

using proto::Program;
using proto::ProgramBuilder;
using proto::Validate;
using proto::analysis::AnalysisReport;
using proto::analysis::LoopCertificate;
using proto::analysis::StaticFootprint;
using proto::analysis::Verdict;
using proto::analysis::analyze;
using sched::SimConfig;
using sched::SimWorld;

// ---------------------------------------------------------------------------
// Registry-wide obligations
// ---------------------------------------------------------------------------

TEST(FfcheckRegistry, AllObligationsHold) {
  std::size_t immune = 0;
  std::size_t non_immune = 0;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    const auto program = info.build(proto::Params{});
    const AnalysisReport report = analyze(*program);
    EXPECT_TRUE(report.ok()) << info.name;
    EXPECT_EQ(report.program, info.name);
    EXPECT_EQ(report.simulable, info.simulable) << info.name;
    for (const auto& o : report.objects) {
      (o.immune ? immune : non_immune) += 1;
    }
  }
  // The acceptance bar: the analyzer proves immunity for at least one
  // registry object (tas) AND flags at least one as not immune — an
  // analyzer that answers uniformly in either direction is vacuous.
  EXPECT_GE(immune, 1u);
  EXPECT_GE(non_immune, 1u);
}

TEST(FfcheckRegistry, TasImmunityCertificate) {
  const auto program = proto::build_program("tas");
  const AnalysisReport report = analyze(*program);
  ASSERT_EQ(report.objects.size(), 1u);
  EXPECT_TRUE(report.objects[0].immune);
  EXPECT_FALSE(report.objects[0].values_top);
  // V(O_0) under overriding closure is {⊥, 1}: every reachable CAS is
  // CAS(O_0, ⊥, 1), which pins expected to ⊥ and desired to 1.
  ASSERT_EQ(report.objects[0].values.size(), 2u);
  EXPECT_EQ(report.objects[0].values[0], std::uint64_t{1});
  EXPECT_EQ(report.objects[0].values[1], proto::kBottomWord);
  EXPECT_EQ(report.immune_objects, std::uint64_t{1});  // bit 0

  const auto facts = proto::analysis::make_facts(report);
  ASSERT_NE(facts, nullptr);
  EXPECT_TRUE(facts->object_immune(0));
  EXPECT_FALSE(facts->object_immune(1));
}

TEST(FfcheckRegistry, FPlusOneCountedLoop) {
  // The f+1-object loop is the registry's counted-bound showcase: with
  // branch-guard narrowing the counter's value set at the loop head is
  // {0..k}, so the certificate bounds the loop by k+1 — a bound that is
  // a function of the instance parameters, not of the fault budget.
  const auto program =
      proto::build_program("f-plus-one", proto::Params{{"k", 2}});
  const AnalysisReport report = analyze(*program);
  EXPECT_EQ(report.a3, Verdict::kProved);
  ASSERT_EQ(report.loops.size(), 1u);
  EXPECT_EQ(report.loops[0].kind, LoopCertificate::Kind::kCounted);
  EXPECT_EQ(report.loops[0].local, "i");
  EXPECT_EQ(report.loops[0].bound, std::uint64_t{3});
}

TEST(FfcheckRegistry, FactoriesExposeFacts) {
  // Both machine paths (interpreter and ffgen-generated) must hand the
  // SAME analysis facts to the scheduler.
  const auto generated = proto::machine_factory("tas");
  const auto interpreted = proto::machine_factory_interpreted("tas");
  const auto gf = generated->facts();
  const auto pf = interpreted->facts();
  ASSERT_NE(gf, nullptr);
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(gf->immune_objects, pf->immune_objects);
}

// ---------------------------------------------------------------------------
// A1 — static footprints
// ---------------------------------------------------------------------------

TEST(FfcheckA1, SingletonIndexIsExact) {
  ProgramBuilder b("a1-exact");
  const auto out = b.local("out", b.input());
  const auto r = b.scratch("r");
  b.emit(out);
  b.cas(r, b.cst(0), 1, b.bottom(), b.ref(out));
  b.halt(b.ref(out));
  const AnalysisReport report = analyze(*b.finalize());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.shared_sites, 1u);
  EXPECT_EQ(report.exact_sites, 1u);
  const auto& fp = report.footprints[0];
  EXPECT_EQ(fp.space, StaticFootprint::Space::kObject);
  EXPECT_TRUE(fp.exact);
  EXPECT_TRUE(fp.writes);
  EXPECT_EQ(fp.lo, 0u);
  EXPECT_EQ(fp.hi, 1u);
}

TEST(FfcheckA1, UnknownIndexWidensToBound) {
  ProgramBuilder b("a1-top");
  const auto slot = b.local("slot", b.input());  // runtime-chosen register
  const auto v = b.scratch("v");
  b.emit(slot);
  b.emit(v);
  b.reg_read(v, b.ref(slot), 4);
  b.halt(b.ref(v));
  const AnalysisReport report = analyze(*b.finalize());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.exact_sites, 0u);
  const auto& fp = report.footprints[0];
  EXPECT_EQ(fp.space, StaticFootprint::Space::kRegister);
  EXPECT_FALSE(fp.exact);
  EXPECT_FALSE(fp.writes);
  EXPECT_EQ(fp.lo, 0u);
  EXPECT_EQ(fp.hi, 4u);
}

// ---------------------------------------------------------------------------
// A2 — overriding immunity
// ---------------------------------------------------------------------------

TEST(FfcheckA2, UniformDesiredProvesImmunity) {
  // tas-shaped: the only CAS is CAS(O_0, ⊥, 1).  An overriding fault
  // needs before ∉ {expected, desired}; contents are {⊥, 1} forever.
  ProgramBuilder b("a2-immune");
  const auto r = b.scratch("r");
  b.cas(r, b.cst(0), 1, b.bottom(), b.cst(1));
  b.halt(b.cst(1));
  const AnalysisReport report = analyze(*b.finalize());
  ASSERT_EQ(report.objects.size(), 1u);
  EXPECT_TRUE(report.objects[0].immune);
  EXPECT_EQ(report.immune_objects, std::uint64_t{1});
}

TEST(FfcheckA2, InputDesiredIsNotImmune) {
  // single-cas-shaped: desired is the (unknown) input, so the content
  // set is ⊤ and a fault can always pick a third value.
  ProgramBuilder b("a2-open");
  const auto out = b.local("out", b.input());
  const auto r = b.scratch("r");
  b.emit(out);
  b.cas(r, b.cst(0), 1, b.bottom(), b.ref(out));
  b.halt(b.ref(out));
  const AnalysisReport report = analyze(*b.finalize());
  ASSERT_EQ(report.objects.size(), 1u);
  EXPECT_FALSE(report.objects[0].immune);
  EXPECT_TRUE(report.objects[0].values_top);
  EXPECT_EQ(report.immune_objects, std::uint64_t{0});
}

TEST(FfcheckA2, TwoDesiredValuesOnOneObjectAreNotImmune) {
  // Two CASes write different constants to the same object: content ⊥
  // can meet CAS(O_0, 1, 2) with before=⊥ ∉ {1, 2} — a fault manifests.
  ProgramBuilder b("a2-mixed");
  const auto r = b.scratch("r");
  b.cas(r, b.cst(0), 1, b.bottom(), b.cst(1));
  b.cas(r, b.cst(0), 1, b.cst(1), b.cst(2));
  b.halt(b.cst(0));
  const AnalysisReport report = analyze(*b.finalize());
  ASSERT_EQ(report.objects.size(), 1u);
  EXPECT_FALSE(report.objects[0].immune);
  EXPECT_FALSE(report.objects[0].values_top);  // {⊥, 1, 2} — finite
  EXPECT_NE(report.objects[0].reason.find("pc"), std::string::npos);
}

// ---------------------------------------------------------------------------
// A3 — budget-boundedness
// ---------------------------------------------------------------------------

TEST(FfcheckA3, CountedLoopCertificate) {
  ProgramBuilder b("a3-counted");
  const auto i = b.local("i", b.cst(0));
  b.emit(i);
  const auto loop = b.label();
  const auto done = b.label();
  b.bind(loop);
  b.branch(b.ge(b.ref(i), b.cst(3)), done);
  b.reg_write(b.cst(0), 1, b.ref(i));
  b.set(i, b.add(b.ref(i), b.cst(1)));
  b.jump(loop);
  b.bind(done);
  b.halt(b.cst(0));
  const AnalysisReport report = analyze(*b.finalize());
  EXPECT_EQ(report.a3, Verdict::kProved);
  ASSERT_EQ(report.loops.size(), 1u);
  EXPECT_EQ(report.loops[0].kind, LoopCertificate::Kind::kCounted);
  EXPECT_EQ(report.loops[0].local, "i");
  // Head values {0,1,2,3}: three iterations run, the fourth visit exits.
  EXPECT_EQ(report.loops[0].bound, std::uint64_t{4});
}

TEST(FfcheckA3, CasRetryLoopIsFlaggedNotViolated) {
  const auto program = proto::build_program("staged");
  const AnalysisReport report = analyze(*program);
  EXPECT_EQ(report.a3, Verdict::kFlagged);
  EXPECT_TRUE(report.ok());  // flags are not violations
  ASSERT_FALSE(report.loops.empty());
  for (const auto& loop : report.loops) {
    EXPECT_EQ(loop.kind, LoopCertificate::Kind::kCasRetry);
  }
}

TEST(FfcheckA3, PauseFreeCycleIsViolated) {
  // finalize(kFull) refuses this program; kSyntaxOnly lets the analyzer
  // demonstrate it REJECTS what the builder would have.
  ProgramBuilder b("a3-spin");
  const auto i = b.local("i", b.cst(0));
  b.emit(i);
  const auto loop = b.label();
  b.bind(loop);
  b.set(i, b.add(b.ref(i), b.cst(1)));
  b.jump(loop);
  b.halt(b.cst(0));
  const auto program = b.finalize(Validate::kSyntaxOnly);
  const AnalysisReport report = analyze(*program);
  EXPECT_EQ(report.a3, Verdict::kViolated);
  EXPECT_FALSE(report.ok());
  bool paused_cycle = false;
  for (const auto& cert : report.loops) {
    paused_cycle =
        paused_cycle || cert.kind == LoopCertificate::Kind::kPausedCycle;
  }
  EXPECT_TRUE(paused_cycle);
}

// ---------------------------------------------------------------------------
// A4 — recovery soundness
// ---------------------------------------------------------------------------

TEST(FfcheckA4, RecoverableRegistryProtocolsProve) {
  for (const char* name : {"recoverable-cas", "recoverable-staged"}) {
    const auto program = proto::build_program(name);
    const AnalysisReport report = analyze(*program);
    EXPECT_EQ(report.a4, Verdict::kProved) << name;
    EXPECT_TRUE(report.recovery_witnesses.empty()) << name;
  }
}

TEST(FfcheckA4, VolatileReadAtRecoveryIsViolatedWithWitness) {
  // The recovery entry reads volatile `v` before any re-definition —
  // after a crash wipes it to 0, the decision silently changes.
  // finalize(kFull) rejects this; kSyntaxOnly admits it for analysis.
  ProgramBuilder b("a4-unsound");
  const auto v = b.local("v", b.input());
  const auto p = b.persistent("p", b.cst(0));
  const auto r = b.scratch("r");
  b.emit(v);
  b.emit(p);
  const auto recover = b.label();
  b.bind(recover);
  b.recover_at(recover);
  b.cas(r, b.cst(0), 1, b.bottom(), b.ref(v));  // pc 0: reads v
  b.set(p, b.cst(1));
  b.halt(b.ref(v));
  const auto program = b.finalize(Validate::kSyntaxOnly);
  const AnalysisReport report = analyze(*program);
  EXPECT_EQ(report.a4, Verdict::kViolated);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.recovery_witnesses.empty());
  EXPECT_EQ(report.recovery_witnesses[0].local, "v");
  EXPECT_EQ(report.recovery_witnesses[0].read_pc, 0u);
  ASSERT_FALSE(report.recovery_witnesses[0].path.empty());
  EXPECT_EQ(report.recovery_witnesses[0].path.front(),
            program->recovery_pc());
}

// ---------------------------------------------------------------------------
// A5 — dead code and encode() coverage
// ---------------------------------------------------------------------------

TEST(FfcheckA5, UnreachableOpIsViolated) {
  ProgramBuilder b("a5-dead");
  const auto out = b.local("out", b.input());
  b.emit(out);
  const auto end = b.label();
  b.jump(end);
  b.set(out, b.cst(42));  // pc 1: jumped over, dead
  b.bind(end);
  b.halt(b.ref(out));
  const auto program = b.finalize(Validate::kSyntaxOnly);
  const AnalysisReport report = analyze(*program);
  EXPECT_EQ(report.a5, Verdict::kViolated);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.unreachable_pcs.size(), 1u);
  EXPECT_EQ(report.unreachable_pcs[0], 1u);
}

// The satellite regression: perturb a protocol's encode() layout in a
// test-local copy of the single-cas builder (drop `out` from emit())
// and assert the analyzer rejects it with a certificate naming the
// EXACT op whose pause the un-encoded live local corrupts.
TEST(FfcheckA5, LayoutPerturbationNamesTheExactOp) {
  ProgramBuilder b("single-cas-perturbed");
  const auto dn = b.local("dn", b.cst(0));
  const auto out = b.local("out", b.input());
  const auto r = b.scratch("r");
  b.emit(dn);
  // PERTURBATION: b.emit(out) is omitted — `out` is live across the CAS
  // pause at pc 0 (its value feeds the decision), so two states that
  // differ only in `out` would encode identically and the memoized
  // census would merge them.
  b.cas(r, b.cst(0), 1, b.bottom(), b.ref(out));
  b.set(out, b.select(b.is_bottom(b.ref(r)), b.ref(out), b.ref(r)));
  b.set(dn, b.cst(1));
  b.halt(b.ref(out));
  const auto program = b.finalize(Validate::kSyntaxOnly);
  const AnalysisReport report = analyze(*program);
  EXPECT_EQ(report.a5, Verdict::kViolated);
  EXPECT_FALSE(report.ok());
  // Every pause where `out` is live is flagged (the halt/encode site
  // too); the FIRST certificate names the CAS whose memoization the
  // perturbation would corrupt, with the exact op and local.
  ASSERT_FALSE(report.coverage_violations.empty());
  EXPECT_EQ(report.coverage_violations[0].pc, 0u);   // the CAS pause
  EXPECT_EQ(report.coverage_violations[0].op, "cas");
  EXPECT_EQ(report.coverage_violations[0].local, "out");
  for (const auto& cv : report.coverage_violations) {
    EXPECT_EQ(cv.local, "out");  // only the dropped local is implicated
  }
}

TEST(FfcheckA5, UnusedLayoutLocalIsInformationalOnly) {
  const auto program = proto::build_program("single-cas");
  const AnalysisReport report = analyze(*program);
  EXPECT_EQ(report.a5, Verdict::kProved);
  ASSERT_EQ(report.unused_layout_locals.size(), 1u);
  EXPECT_EQ(report.unused_layout_locals[0], "dn");
}

// ---------------------------------------------------------------------------
// A2 pruning differential — census equality, both explorers
// ---------------------------------------------------------------------------

struct Census {
  std::uint64_t states = 0;
  std::uint64_t terminals = 0;
  std::uint64_t violations = 0;
  std::set<std::uint64_t> agreed;
  std::uint64_t skips = 0;

  [[nodiscard]] bool operator==(const Census& o) const {
    return states == o.states && terminals == o.terminals &&
           violations == o.violations && agreed == o.agreed;
  }
};

Census run_census(const sched::MachineFactory& factory,
                  model::FaultKind kind, std::uint32_t crash_budget,
                  bool pruning, bool frontier) {
  SimConfig config;
  config.num_objects = factory.objects_used();
  config.num_registers = factory.registers_used();
  config.kind = kind;
  config.t = 1;
  config.crash_budget = crash_budget;
  config.use_immunity_pruning = pruning;
  // Census comparison needs the FULL state space — several grid points
  // do violate (that is the paper's point), so never stop at the first.
  sched::ExploreOptions opts;
  opts.stop_at_first_violation = false;
  sched::ExploreResult result;
  if (frontier) {
    sched::FrontierExploreOptions options;
    options.explore = opts;
    options.num_threads = 2;
    result = sched::frontier_explore(config, factory, {1, 2}, options).explore;
  } else {
    result = sched::explore(SimWorld(config, factory, {1, 2}), opts);
  }
  EXPECT_TRUE(result.complete);
  return Census{result.states_visited, result.terminal_states,
                result.violations_found, result.agreed_values,
                result.immunity_skips};
}

TEST(FfcheckPruning, CensusIsIdenticalWithAndWithoutPruning) {
  std::uint64_t total_skips = 0;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    const auto factory = proto::machine_factory(info.name);
    const bool recoverable = proto::build_program(info.name)->has_recovery();
    for (const model::FaultKind kind :
         {model::FaultKind::kNone, model::FaultKind::kOverriding,
          model::FaultKind::kSilent}) {
      for (const std::uint32_t crash_budget :
           recoverable ? std::vector<std::uint32_t>{0, 1}
                       : std::vector<std::uint32_t>{0}) {
        for (const bool frontier : {false, true}) {
          const Census pruned =
              run_census(*factory, kind, crash_budget, true, frontier);
          const Census brute =
              run_census(*factory, kind, crash_budget, false, frontier);
          EXPECT_TRUE(pruned == brute)
              << info.name << " kind=" << static_cast<int>(kind)
              << " crash=" << crash_budget << " frontier=" << frontier;
          // Brute force never consults the immune mask.
          EXPECT_EQ(brute.skips, 0u) << info.name;
          // Pruning is only ever consulted under kOverriding.
          if (kind != model::FaultKind::kOverriding) {
            EXPECT_EQ(pruned.skips, 0u) << info.name;
          }
          total_skips += pruned.skips;
        }
      }
    }
  }
  // The proof must fire somewhere (tas is immune): a differential where
  // the pruned side never skips only proves the flag plumbing, not the
  // analyzer.
  EXPECT_GT(total_skips, 0u);
}

TEST(FfcheckPruning, TasSkipsOverridingBranches) {
  const auto factory = proto::machine_factory("tas");
  const Census pruned = run_census(*factory, model::FaultKind::kOverriding,
                                   0, true, false);
  const Census brute = run_census(*factory, model::FaultKind::kOverriding,
                                  0, false, false);
  EXPECT_TRUE(pruned == brute);
  EXPECT_GT(pruned.skips, 0u);
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

TEST(FfcheckReport, JsonIsDeterministicAndShaped) {
  const auto program = proto::build_program("tas");
  const auto render = [&] {
    util::JsonWriter w;
    proto::analysis::render_json(analyze(*program), w);
    return std::string(w.str());
  };
  const std::string first = render();
  EXPECT_EQ(first, render());  // seed/iteration-order independent
  for (const char* needle :
       {"\"program\":\"tas\"", "\"ok\":true", "\"a1\":", "\"a2\":",
        "\"a3\":", "\"a4\":", "\"a5\":", "\"immune_mask\":1",
        "\"verdict\":\"proved\"", "\"footprints\":"}) {
    EXPECT_NE(first.find(needle), std::string::npos) << needle;
  }
}

TEST(FfcheckReport, HumanReportCarriesCertificates) {
  const auto tas = proto::analysis::render_human(
      analyze(*proto::build_program("tas")));
  EXPECT_NE(tas.find("overriding-immune"), std::string::npos);
  EXPECT_NE(tas.find("object 0: immune"), std::string::npos);
  const auto fp1 = proto::analysis::render_human(
      analyze(*proto::build_program("f-plus-one")));
  EXPECT_NE(fp1.find("counted"), std::string::npos);
  EXPECT_NE(fp1.find("`i`"), std::string::npos);
}

}  // namespace
}  // namespace ff
