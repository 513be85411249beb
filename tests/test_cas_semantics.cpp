// Unit tests for the model layer: CAS sequential specification, deviating
// postconditions Φ′, observation classification, and value packing; and
// Definition 1 as the simulators' step rule applies it.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/cas_semantics.hpp"
#include "model/cas_triples.hpp"
#include "model/fault_kind.hpp"
#include "model/tolerance.hpp"
#include "model/value.hpp"
#include "sched/step_rule.hpp"

namespace ff::model {
namespace {

const Value kBot = Value::bottom();
const Value kA = Value::of(7);
const Value kB = Value::of(42);
const Value kC = Value::of(99);

TEST(Value, BottomIsDistinguished) {
  EXPECT_TRUE(kBot.is_bottom());
  EXPECT_FALSE(kA.is_bottom());
  EXPECT_NE(kBot, kA);
  EXPECT_EQ(Value::bottom(), Value::bottom());
}

TEST(Value, DefaultConstructedIsBottom) {
  EXPECT_TRUE(Value{}.is_bottom());
}

TEST(Value, EqualityIsByRawWord) {
  EXPECT_EQ(Value::of(7), Value::of(7));
  EXPECT_NE(Value::of(7), Value::of(8));
}

TEST(Value, ToStringRendersBottomAndNumbers) {
  EXPECT_EQ(kA.to_string(), "7");
  EXPECT_FALSE(kBot.to_string().empty());
}

TEST(StagedValue, PackUnpackRoundTrip) {
  const StagedValue sv(123456, 77);
  const Value packed = sv.pack();
  EXPECT_FALSE(packed.is_bottom());
  const StagedValue back = StagedValue::unpack(packed);
  EXPECT_EQ(back.value(), 123456u);
  EXPECT_EQ(back.stage(), 77u);
  EXPECT_EQ(back, sv);
}

TEST(StagedValue, DistinctPairsPackDistinctly) {
  EXPECT_NE(StagedValue(1, 2).pack(), StagedValue(2, 1).pack());
  EXPECT_NE(StagedValue(1, 2).pack(), StagedValue(1, 3).pack());
}

TEST(StagedValue, OnlyAllOnesPairCollidesWithBottom) {
  EXPECT_TRUE(StagedValue(0xFFFFFFFFu, 0xFFFFFFFFu).pack().is_bottom());
  EXPECT_FALSE(StagedValue(0xFFFFFFFFu, 0).pack().is_bottom());
  EXPECT_FALSE(StagedValue(0, 0xFFFFFFFFu).pack().is_bottom());
}

// --- Sequential specification -------------------------------------------

TEST(CasApply, SuccessWritesAndReturnsOld) {
  const CasEffect e = cas_apply(kBot, {kBot, kA});
  EXPECT_TRUE(e.success);
  EXPECT_EQ(e.after, kA);
  EXPECT_EQ(e.returned, kBot);
}

TEST(CasApply, FailureLeavesContentAndReturnsOld) {
  const CasEffect e = cas_apply(kB, {kBot, kA});
  EXPECT_FALSE(e.success);
  EXPECT_EQ(e.after, kB);
  EXPECT_EQ(e.returned, kB);
}

TEST(CasApply, OverridingAlwaysWrites) {
  const CasEffect e = cas_apply_overriding(kB, {kBot, kA});
  EXPECT_TRUE(e.success);
  EXPECT_EQ(e.after, kA);
  EXPECT_EQ(e.returned, kB);
}

TEST(CasApply, SilentNeverWrites) {
  const CasEffect e = cas_apply_silent(kBot, {kBot, kA});
  EXPECT_FALSE(e.success);
  EXPECT_EQ(e.after, kBot);
  EXPECT_EQ(e.returned, kBot);
}

// --- Φ and Φ′ --------------------------------------------------------------

TEST(Phi, HoldsForCorrectSuccess) {
  EXPECT_TRUE(satisfies_phi({kBot, kA, kBot}, {kBot, kA}));
}

TEST(Phi, HoldsForCorrectFailure) {
  EXPECT_TRUE(satisfies_phi({kB, kB, kB}, {kBot, kA}));
}

TEST(Phi, ViolatedByOverridingWrite) {
  // R′ = B ≠ exp = ⊥, yet R = A was written.
  EXPECT_FALSE(satisfies_phi({kB, kA, kB}, {kBot, kA}));
}

TEST(Phi, ViolatedBySilentDrop) {
  // R′ = ⊥ = exp, yet nothing was written.
  EXPECT_FALSE(satisfies_phi({kBot, kBot, kBot}, {kBot, kA}));
}

TEST(Phi, ViolatedByWrongOutput) {
  EXPECT_FALSE(satisfies_phi({kB, kB, kC}, {kBot, kA}));
}

TEST(PhiPrime, OverridingMatchesItsDeviation) {
  const CasObservation obs{kB, kA, kB};
  const CasCall call{kBot, kA};
  EXPECT_TRUE(satisfies_phi_prime(FaultKind::kOverriding, obs, call));
  EXPECT_FALSE(satisfies_phi_prime(FaultKind::kSilent, obs, call));
}

TEST(PhiPrime, OverridingSubsumesCorrectSuccess) {
  // Φ′ of overriding also covers the case where the comparison succeeds —
  // the fault is one-sided.
  EXPECT_TRUE(satisfies_phi_prime(FaultKind::kOverriding, {kBot, kA, kBot},
                                  {kBot, kA}));
}

TEST(PhiPrime, SilentMatchesItsDeviation) {
  const CasObservation obs{kBot, kBot, kBot};
  const CasCall call{kBot, kA};
  EXPECT_TRUE(satisfies_phi_prime(FaultKind::kSilent, obs, call));
  EXPECT_FALSE(satisfies_phi_prime(FaultKind::kOverriding, obs, call));
}

TEST(PhiPrime, InvisibleRequiresCorrectRegisterBehaviour) {
  // Output wrong, register per spec: invisible.
  EXPECT_TRUE(satisfies_phi_prime(FaultKind::kInvisible, {kB, kB, kC},
                                  {kBot, kA}));
  // Register also wrong: not an invisible fault.
  EXPECT_FALSE(satisfies_phi_prime(FaultKind::kInvisible, {kB, kC, kC},
                                   {kBot, kA}));
}

TEST(PhiPrime, ArbitraryRequiresOnlyCorrectOutput) {
  EXPECT_TRUE(satisfies_phi_prime(FaultKind::kArbitrary, {kB, kC, kB},
                                  {kBot, kA}));
  EXPECT_FALSE(satisfies_phi_prime(FaultKind::kArbitrary, {kB, kC, kC},
                                   {kBot, kA}));
}

TEST(PhiPrime, NonresponsiveNeverMatchesAnObservation) {
  EXPECT_FALSE(satisfies_phi_prime(FaultKind::kNonresponsive,
                                   {kBot, kA, kBot}, {kBot, kA}));
}

TEST(PhiPrime, DataCorruptionAdmitsAnything) {
  EXPECT_TRUE(satisfies_phi_prime(FaultKind::kDataCorruption, {kB, kC, kC},
                                  {kBot, kA}));
}

// --- classify ---------------------------------------------------------------

TEST(Classify, CorrectExecutions) {
  EXPECT_EQ(classify({kBot, kA, kBot}, {kBot, kA}), FaultKind::kNone);
  EXPECT_EQ(classify({kB, kB, kB}, {kBot, kA}), FaultKind::kNone);
}

TEST(Classify, Overriding) {
  EXPECT_EQ(classify({kB, kA, kB}, {kBot, kA}), FaultKind::kOverriding);
}

TEST(Classify, Silent) {
  EXPECT_EQ(classify({kBot, kBot, kBot}, {kBot, kA}), FaultKind::kSilent);
}

TEST(Classify, Invisible) {
  EXPECT_EQ(classify({kB, kB, kC}, {kBot, kA}), FaultKind::kInvisible);
}

TEST(Classify, ArbitraryWrite) {
  // Written value is neither `desired` nor the old content.
  EXPECT_EQ(classify({kB, kC, kB}, {kBot, kA}), FaultKind::kArbitrary);
}

TEST(Classify, UnstructuredGoesToDataCorruption) {
  // Both register and output wrong.
  EXPECT_EQ(classify({kB, kC, kC}, {kBot, kA}), FaultKind::kDataCorruption);
}

// --- TripleChecker instantiation -------------------------------------------

TEST(CasTripleChecker, AgreesWithClassify) {
  CasFaultIndex index{};
  const auto checker = make_cas_checker(&index);

  const CasCall call{kBot, kA};
  // Correct.
  auto r = checker.classify(call, CasObservation{kBot, kA, kBot});
  EXPECT_EQ(r.verdict, StepVerdict::kCorrect);
  // Overriding.
  r = checker.classify(call, CasObservation{kB, kA, kB});
  ASSERT_EQ(r.verdict, StepVerdict::kCharacterized);
  EXPECT_EQ(*r.characterization, index.overriding);
  // Silent.
  r = checker.classify(call, CasObservation{kBot, kBot, kBot});
  ASSERT_EQ(r.verdict, StepVerdict::kCharacterized);
  EXPECT_EQ(*r.characterization, index.silent);
  // Invisible.
  r = checker.classify(call, CasObservation{kB, kB, kC});
  ASSERT_EQ(r.verdict, StepVerdict::kCharacterized);
  EXPECT_EQ(*r.characterization, index.invisible);
  // Unstructured.
  r = checker.classify(call, CasObservation{kB, kC, kC});
  EXPECT_EQ(r.verdict, StepVerdict::kUnstructured);
}

TEST(Tolerance, SpecAdmission) {
  const ToleranceSpec spec{2, 3, 4};
  EXPECT_TRUE(spec.admits(2, 3, 4));
  EXPECT_TRUE(spec.admits(0, 0, 1));
  EXPECT_FALSE(spec.admits(3, 3, 4));
  EXPECT_FALSE(spec.admits(2, 4, 4));
  EXPECT_FALSE(spec.admits(2, 3, 5));
}

TEST(Tolerance, UnboundedParameters) {
  const ToleranceSpec f_tolerant{2, kUnbounded, kUnbounded};
  EXPECT_TRUE(f_tolerant.admits(2, 1000000, 1000000));
  EXPECT_FALSE(f_tolerant.admits(3, 1, 1));
  EXPECT_EQ(f_tolerant.to_string(), "(2,inf,inf)");
}

TEST(Tolerance, StagedMaxStageFormula) {
  // maxStage = t·(4f+f²)
  EXPECT_EQ(staged_max_stage(1, 1), 5u);
  EXPECT_EQ(staged_max_stage(2, 1), 12u);
  EXPECT_EQ(staged_max_stage(3, 2), 42u);
  EXPECT_EQ(staged_max_stage(5, 4), 180u);
}

TEST(Tolerance, TotalFaultBudget) {
  EXPECT_EQ(total_fault_budget(3, 4), 12u);
  EXPECT_EQ(total_fault_budget(1, 1), 1u);
}

TEST(FaultKindTraits, Responsiveness) {
  EXPECT_TRUE(is_responsive(FaultKind::kOverriding));
  EXPECT_TRUE(is_responsive(FaultKind::kSilent));
  EXPECT_FALSE(is_responsive(FaultKind::kNonresponsive));
}

// --- Definition 1 in the simulators' step rule ------------------------------
//
// The engines offer a fault branch only where the fault manifests: its Φ′
// outcome violates Φ.  These tests drive sched::StepRule over one process,
// one object and one register, with every value drawn from {⊥, 1, 2, 3}.

const std::vector<Value> kDomain = {kBot, Value::of(1), Value::of(2),
                                    Value::of(3)};

/// The state the step rule reads: one live, crashable process whose next
/// step is `op`.
struct OneStepView {
  sched::PendingOp op;
  Value content;         ///< object 0
  Value register_value;  ///< register 0

  [[nodiscard]] std::uint32_t processes() const { return 1; }
  [[nodiscard]] sched::PendingOp pending(objects::ProcessId) const {
    return op;
  }
  [[nodiscard]] std::uint32_t crashes(objects::ProcessId) const { return 0; }
  [[nodiscard]] bool can_crash(objects::ProcessId) const { return true; }
  [[nodiscard]] bool killed(objects::ProcessId) const { return false; }
  [[nodiscard]] std::optional<std::uint64_t> decision(
      objects::ProcessId) const {
    return std::nullopt;
  }
  [[nodiscard]] Value object(objects::ObjectId) const { return content; }
  [[nodiscard]] std::uint32_t faults(objects::ObjectId) const { return 0; }
  [[nodiscard]] Value reg(objects::ObjectId) const { return register_value; }
};

sched::StepRule rule_for(FaultKind kind, std::uint32_t crash_budget = 0) {
  sched::SimConfig config;
  config.num_registers = 1;
  config.kind = kind;
  config.arbitrary_candidates = kDomain;
  config.crash_budget = crash_budget;
  return sched::StepRule(config, nullptr, {1, 2, 3});
}

std::vector<sched::Choice> enabled(const sched::StepRule& rule,
                                   const OneStepView& view) {
  std::vector<sched::Choice> out;
  std::uint64_t checks = 0;
  std::uint64_t skips = 0;
  rule.enabled(view, out, checks, skips);
  return out;
}

/// Every observation over the domain that starts from `before` and
/// satisfies Φ′ of `kind` without satisfying Φ.
std::vector<CasObservation> manifesting(FaultKind kind, Value before,
                                        const CasCall& call) {
  std::vector<CasObservation> out;
  for (const Value after : kDomain) {
    for (const Value returned : kDomain) {
      const CasObservation obs{before, after, returned};
      if (satisfies_phi_prime(kind, obs, call) && !satisfies_phi(obs, call)) {
        out.push_back(obs);
      }
    }
  }
  return out;
}

TEST(Definition1, OfferedFaultsManifestAndOnlyThey) {
  for (const FaultKind kind :
       {FaultKind::kOverriding, FaultKind::kSilent, FaultKind::kInvisible,
        FaultKind::kArbitrary, FaultKind::kNonresponsive}) {
    const sched::StepRule rule = rule_for(kind);
    for (const Value before : kDomain) {
      for (const Value expected : kDomain) {
        for (const Value desired : kDomain) {
          const CasCall call{expected, desired};
          const OneStepView view{sched::PendingOp::cas(0, expected, desired),
                                 before, kBot};
          const std::string label =
              std::string(to_string(kind)) + " R'=" + before.to_string() +
              " exp=" + expected.to_string() + " val=" + desired.to_string();
          const std::vector<sched::Choice> out = enabled(rule, view);
          ASSERT_FALSE(out.empty()) << label;
          EXPECT_EQ(out.front(), (sched::Choice{0, false, 0})) << label;

          std::vector<CasObservation> offered;
          for (std::size_t i = 1; i < out.size(); ++i) {
            ASSERT_TRUE(out[i].fault) << label;
            const sched::StepOutcome o = rule.outcome(view, out[i]);
            EXPECT_TRUE(o.charge) << label;
            if (kind == FaultKind::kNonresponsive) {
              EXPECT_TRUE(o.kill) << label;  // it does not respond
              continue;
            }
            EXPECT_FALSE(o.kill) << label;
            EXPECT_EQ(o.obs.before, before) << label;
            EXPECT_TRUE(satisfies_phi_prime(kind, o.obs, call)) << label;
            EXPECT_FALSE(satisfies_phi(o.obs, call)) << label;
            offered.push_back(o.obs);
          }

          const std::vector<CasObservation> deviations =
              manifesting(kind, before, call);
          switch (kind) {
            case FaultKind::kOverriding:
            case FaultKind::kSilent:
              // Φ′ fixes the whole outcome: offered iff it violates Φ.
              EXPECT_EQ(offered, deviations) << label;
              break;
            case FaultKind::kArbitrary:
              // Φ′ fixes the output: every candidate written, in
              // candidate order, whose outcome violates Φ.
              EXPECT_EQ(offered, deviations) << label;
              for (std::size_t i = 1; i < out.size(); ++i) {
                EXPECT_EQ(offered[i - 1].after,
                          kDomain[out[i].fault_variant])
                    << label;
              }
              break;
            case FaultKind::kInvisible:
              // Φ′ fixes the content only; the one deviating output
              // always violates Φ.
              ASSERT_EQ(offered.size(), 1u) << label;
              EXPECT_EQ(offered.front().returned, invisible_return(before))
                  << label;
              break;
            case FaultKind::kNonresponsive:
              EXPECT_EQ(out.size(), 2u) << label;
              break;
            default:
              break;
          }
        }
      }
    }
  }
}

TEST(Definition1, CrashAfterOnlyWhereTheEffectChangesState) {
  const sched::StepRule rule = rule_for(FaultKind::kNone, 1);
  const sched::Choice before_crash{0, false, 0, true};
  const sched::Choice after_crash{0, false, 1, true};
  for (const Value content : kDomain) {
    for (const Value expected : kDomain) {
      for (const Value desired : kDomain) {
        const OneStepView cas{sched::PendingOp::cas(0, expected, desired),
                              content, kBot};
        const bool changes =
            cas_apply(content, {expected, desired}).after != content;
        std::vector<sched::Choice> want = {{0, false, 0}, before_crash};
        if (changes) want.push_back(after_crash);
        EXPECT_EQ(enabled(rule, cas), want);
        if (changes) {
          const sched::StepOutcome o = rule.outcome(cas, after_crash);
          EXPECT_TRUE(o.crash);
          EXPECT_EQ(o.written, desired);
        }
      }
    }
    for (const Value desired : kDomain) {
      const OneStepView write{sched::PendingOp::reg_write(0, desired), kBot,
                              content};
      std::vector<sched::Choice> want = {{0, false, 0}, before_crash};
      if (content != desired) want.push_back(after_crash);
      EXPECT_EQ(enabled(rule, write), want);
    }
    const OneStepView read{sched::PendingOp::reg_read(0), kBot, content};
    EXPECT_EQ(enabled(rule, read),
              (std::vector<sched::Choice>{{0, false, 0}, before_crash}));
  }
}

TEST(Definition1, CorruptionOnlyWhereItChangesTheContent) {
  const sched::StepRule rule = rule_for(FaultKind::kDataCorruption);
  for (const Value content : kDomain) {
    for (const Value expected : kDomain) {
      for (const Value desired : kDomain) {
        const OneStepView view{sched::PendingOp::cas(0, expected, desired),
                               content, kBot};
        // The CAS itself behaves per spec: no per-operation fault.
        std::vector<sched::Choice> want = {{0, false, 0}};
        for (std::uint32_t c = 0; c < kDomain.size(); ++c) {
          if (kDomain[c] != content) {
            want.push_back({sched::kAdversaryPid, true, c});
          }
        }
        EXPECT_EQ(enabled(rule, view), want);
      }
    }
  }
}

TEST(FaultKindTraits, Structure) {
  EXPECT_TRUE(is_structured(FaultKind::kOverriding));
  EXPECT_TRUE(is_structured(FaultKind::kSilent));
  EXPECT_TRUE(is_structured(FaultKind::kInvisible));
  EXPECT_FALSE(is_structured(FaultKind::kArbitrary));
  EXPECT_FALSE(is_structured(FaultKind::kDataCorruption));
}

TEST(FaultKindTraits, FunctionalVsData) {
  EXPECT_TRUE(is_functional(FaultKind::kOverriding));
  EXPECT_FALSE(is_functional(FaultKind::kDataCorruption));
  EXPECT_FALSE(is_functional(FaultKind::kNone));
}

}  // namespace
}  // namespace ff::model
