// Tests of the Theorem 19 covering adversary and the hierarchy prober.
#include <gtest/gtest.h>

#include <numeric>

#include "legacy/machines.hpp"
#include "hierarchy/consensus_number.hpp"
#include "proto/registry.hpp"
#include "sched/adversary.hpp"

namespace ff {
namespace {

using consensus::FPlusOneFactory;
using consensus::StagedFactory;
using sched::run_covering_adversary;

std::vector<std::uint64_t> inputs(std::uint32_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

// --- covering adversary (Theorem 19 proof execution) -----------------------

TEST(CoveringAdversary, DefeatsStagedProtocol) {
  for (std::uint32_t f = 1; f <= 4; ++f) {
    const StagedFactory factory(f, 1);
    const auto result = run_covering_adversary(factory, f, inputs(f + 2));
    EXPECT_TRUE(result.claim20_held) << "f=" << f;
    EXPECT_TRUE(result.both_decided) << "f=" << f;
    EXPECT_TRUE(result.disagreement) << "f=" << f;
    // p0 ran solo first, so it decided its own input (validity +
    // wait-freedom force this).
    EXPECT_EQ(result.p0_decision, 1u) << "f=" << f;
    EXPECT_NE(result.last_decision, 1u) << "f=" << f;
  }
}

TEST(CoveringAdversary, UsesAtMostOneFaultPerObject) {
  for (std::uint32_t f = 1; f <= 4; ++f) {
    const StagedFactory factory(f, 1);
    const auto result = run_covering_adversary(factory, f, inputs(f + 2));
    ASSERT_EQ(result.faults_per_object.size(), f);
    std::uint32_t faulted = 0;
    for (const auto count : result.faults_per_object) {
      EXPECT_LE(count, 1u) << "f=" << f;
      faulted += count;
    }
    // At most f faults total — the t=1 lower-bound budget.
    EXPECT_LE(faulted, f) << "f=" << f;
  }
}

TEST(CoveringAdversary, TouchesFDistinctObjects) {
  const StagedFactory factory(3, 1);
  const auto result = run_covering_adversary(factory, 3, inputs(5));
  // Claim 20: p1..p3 each reached a distinct fresh object.
  std::set<objects::ObjectId> distinct(result.faulted_objects.begin(),
                                       result.faulted_objects.end());
  EXPECT_EQ(result.faulted_objects.size(), 3u);
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(CoveringAdversary, DefeatsFPlusOneRunWithOnlyFObjects) {
  // The candidate of Theorem 18 (Figure 2 with f objects) also falls to
  // the bounded-fault covering schedule.
  for (std::uint32_t f = 1; f <= 3; ++f) {
    const FPlusOneFactory factory(f);
    const auto result = run_covering_adversary(factory, f, inputs(f + 2));
    EXPECT_TRUE(result.claim20_held) << "f=" << f;
    EXPECT_TRUE(result.disagreement) << "f=" << f;
  }
}

TEST(CoveringAdversary, NoFaultWhereNoneManifests) {
  // Every tas process sets the bit with CAS(O0, ⊥, 1).  Once p0 has set
  // it, p1's CAS finds O0 already holding 1, so an overriding fault
  // would leave the outcome inside Φ (Definition 1): it is no fault, and
  // costs none.
  const auto factory = proto::machine_factory("tas", proto::Params{{"n", 3}});
  const auto result = run_covering_adversary(*factory, 1, inputs(3));
  ASSERT_EQ(result.faults_per_object.size(), 1u);
  for (const auto count : result.faults_per_object) EXPECT_EQ(count, 0u);
}

TEST(CoveringAdversary, ProducesAuditableLog) {
  const StagedFactory factory(2, 1);
  const auto result = run_covering_adversary(factory, 2, inputs(4));
  EXPECT_GE(result.log.size(), 4u);  // p0 decided, 2 faults, p3 decided
  EXPECT_GT(result.total_steps, 0u);
}

// --- hierarchy prober (E6) ---------------------------------------------------

TEST(Hierarchy, StagedCellOkAtFPlusOne) {
  hierarchy::ProbeOptions options;
  options.explorer_max_states = 200'000;
  const auto cell = hierarchy::probe_staged_cell(1, 1, 2, options);
  EXPECT_TRUE(cell.ok());
  EXPECT_EQ(cell.evidence, hierarchy::Evidence::kProvenOk);
  EXPECT_EQ(cell.method, "explorer");
}

TEST(Hierarchy, StagedCellViolationAtFPlusTwo) {
  hierarchy::ProbeOptions options;
  options.explorer_max_states = 200'000;
  const auto cell = hierarchy::probe_staged_cell(1, 1, 3, options);
  EXPECT_FALSE(cell.ok());
  EXPECT_EQ(cell.evidence, hierarchy::Evidence::kViolation);
}

TEST(Hierarchy, ConsensusNumberIsFPlusOne) {
  hierarchy::ProbeOptions options;
  options.explorer_max_states = 500'000;
  options.walks = 100;
  for (std::uint32_t f = 1; f <= 3; ++f) {
    const auto estimate =
        hierarchy::estimate_staged_consensus_number(f, 1, f + 3, options);
    EXPECT_EQ(estimate.consensus_number, f + 1) << "f=" << f;
    // Cells up to f+1 are ok, beyond are violations.
    for (const auto& cell : estimate.cells) {
      if (cell.n <= f + 1) {
        EXPECT_TRUE(cell.ok()) << "f=" << f << " n=" << cell.n << " ("
                               << cell.method << ": " << cell.detail << ")";
      } else {
        EXPECT_FALSE(cell.ok()) << "f=" << f << " n=" << cell.n;
      }
    }
  }
}

TEST(Hierarchy, EvidenceNamesRender) {
  EXPECT_EQ(to_string(hierarchy::Evidence::kProvenOk), "proven-ok");
  EXPECT_EQ(to_string(hierarchy::Evidence::kViolation), "violation");
  EXPECT_EQ(to_string(hierarchy::Evidence::kStressOk), "stress-ok");
  EXPECT_EQ(to_string(hierarchy::Evidence::kInconclusive), "inconclusive");
}

}  // namespace
}  // namespace ff
