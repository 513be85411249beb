// Shared differential-testing helpers: the protocol × fault-kind ×
// (f, t) grid that the cross-engine suites (the frontier, reduction,
// fuzzer and crash suites among them) walk with the sequential explorer
// as the oracle, and a witness check that replays a reported violation.
//
// Quantities that are properties of the reachable state GRAPH must match
// the oracle exactly: states_visited, terminal_states, per-terminal
// violation counts (inconsistent / invalid / stalled), the agreed-value
// set, and completeness.  kNontermination counts are traversal-defined
// (DFS back-edges vs. SCC-internal process edges), so only
// presence/absence is compared.  Witnesses are validated semantically by
// replaying them — see expect_witness_reproduces().
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "legacy/machines.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff::testutil {

inline std::vector<std::uint64_t> iota_inputs(std::uint32_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

/// One cell of the differential grid: a protocol machine factory plus a
/// fault kind and an (f, t) budget.
struct GridCase {
  std::string name;
  std::shared_ptr<const sched::MachineFactory> factory;
  model::FaultKind kind = model::FaultKind::kOverriding;
  std::uint32_t t = 1;
  std::uint32_t n = 2;
  bool corruption_steps = false;
};

[[nodiscard]] inline sched::SimConfig grid_config(const GridCase& gc) {
  sched::SimConfig config;
  config.num_objects = gc.factory->objects_used();
  config.num_registers = gc.factory->registers_used();
  config.kind = gc.kind;
  config.t = gc.t;
  config.allow_corruption_steps = gc.corruption_steps;
  return config;
}

[[nodiscard]] inline sched::SimWorld make_world(const GridCase& gc) {
  return sched::SimWorld(grid_config(gc), *gc.factory, iota_inputs(gc.n));
}

[[nodiscard]] inline sched::ExploreOptions full_space_options(
    const GridCase& gc) {
  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  options.killed_is_violation =
      gc.kind == model::FaultKind::kNonresponsive;
  return options;
}

/// The seed-protocol × fault-kind × (f, t) grid.  Every configuration is
/// small enough for an exhaustive sequential pass, so the sequential
/// explorer acts as the trusted oracle.
[[nodiscard]] inline std::vector<GridCase> differential_grid() {
  using consensus::AnnounceCasFactory;
  using consensus::FPlusOneFactory;
  using consensus::RetrySilentFactory;
  using consensus::SingleCasFactory;
  using consensus::StagedFactory;
  using consensus::TasFactory;
  using model::FaultKind;
  using model::kUnbounded;

  std::vector<GridCase> grid;
  const auto tag = [](std::uint32_t t) {
    return t == kUnbounded ? std::string("inf") : std::to_string(t);
  };

  // Single-CAS (Figure 1): every per-operation fault kind, bounded and
  // unbounded budgets, two and three processes.
  for (const std::uint32_t n : {2u, 3u}) {
    for (const FaultKind kind :
         {FaultKind::kOverriding, FaultKind::kSilent, FaultKind::kInvisible,
          FaultKind::kArbitrary, FaultKind::kNonresponsive}) {
      for (const std::uint32_t t : {1u, kUnbounded}) {
        grid.push_back({"single-cas/" + std::string(model::to_string(kind)) +
                            "/t" + tag(t) + "/n" + std::to_string(n),
                        std::make_shared<SingleCasFactory>(), kind, t, n});
      }
    }
  }
  // Single-CAS under adversary data corruption (Afek model).
  grid.push_back({"single-cas/data/t1/n2",
                  std::make_shared<SingleCasFactory>(),
                  FaultKind::kDataCorruption, 1, 2, true});

  // TAS (register-augmented, hierarchy level 2).
  for (const std::uint32_t n : {2u, 3u}) {
    for (const FaultKind kind : {FaultKind::kOverriding, FaultKind::kSilent}) {
      grid.push_back({"tas/" + std::string(model::to_string(kind)) + "/t1/n" +
                          std::to_string(n),
                      std::make_shared<TasFactory>(n), kind, 1, n});
    }
  }

  // f+1 ensembles (Figure 2 / Theorem 5) and the f-object candidate.
  for (const std::uint32_t n : {2u, 3u}) {
    for (const std::uint32_t t : {1u, kUnbounded}) {
      grid.push_back({"fp1-k2/overriding/t" + tag(t) + "/n" +
                          std::to_string(n),
                      std::make_shared<FPlusOneFactory>(2),
                      FaultKind::kOverriding, t, n});
    }
  }
  grid.push_back({"fp1-k3/overriding/tinf/n3",
                  std::make_shared<FPlusOneFactory>(3),
                  FaultKind::kOverriding, kUnbounded, 3});

  // Staged (Figure 3) at matching (f, t) budgets.
  for (const auto& [f, t, n] :
       std::vector<std::array<std::uint32_t, 3>>{
           {1, 1, 2}, {1, 1, 3}, {1, 2, 2}, {2, 1, 2}, {2, 2, 2}}) {
    grid.push_back({"staged-f" + std::to_string(f) + "t" + std::to_string(t) +
                        "/overriding/n" + std::to_string(n),
                    std::make_shared<StagedFactory>(f, t),
                    FaultKind::kOverriding, t, n});
  }

  // Retry-silent (§3.4): tolerant at bounded t, livelocks at t = ∞ (the
  // t = ∞ cell is the grid's nontermination case).
  for (const auto& [t, n] : std::vector<std::array<std::uint32_t, 2>>{
           {1, 2}, {1, 3}, {2, 2}, {2, 3}, {kUnbounded, 2}}) {
    grid.push_back({"retry-silent/silent/t" + tag(t) + "/n" +
                        std::to_string(n),
                    std::make_shared<RetrySilentFactory>(),
                    FaultKind::kSilent, t, n});
  }

  // Announce-and-tiebreak (registers beside the CAS object).
  for (const std::uint32_t n : {2u, 3u}) {
    grid.push_back({"announce/overriding/t1/n" + std::to_string(n),
                    std::make_shared<AnnounceCasFactory>(n),
                    FaultKind::kOverriding, 1, n});
  }
  return grid;
}

/// Replays a witness and asserts it actually exhibits the reported
/// violation kind (inconsistency/invalidity/stall at a terminal state; a
/// revisited state with a process step in the repeated suffix for
/// nontermination).
inline void expect_witness_reproduces(const sched::SimWorld& initial,
                                      const sched::Violation& violation,
                                      const std::string& label) {
  if (violation.kind == sched::ViolationKind::kNontermination) {
    sched::SimWorld cur = initial;
    std::vector<std::vector<std::uint64_t>> encodes{cur.encode()};
    for (const sched::Choice& c : violation.schedule) {
      cur.apply(c);
      encodes.push_back(cur.encode());
    }
    ASSERT_GE(encodes.size(), 2u) << label;
    const auto& final_state = encodes.back();
    bool repeats = false;
    for (std::size_t i = 0; i + 1 < encodes.size(); ++i) {
      if (encodes[i] != final_state) continue;
      repeats = true;
      bool process_steps = false;
      for (std::size_t k = i; k < violation.schedule.size(); ++k) {
        if (violation.schedule[k].pid != sched::kAdversaryPid) {
          process_steps = true;
          break;
        }
      }
      EXPECT_TRUE(process_steps)
          << label << ": cycle has no process step";
      break;
    }
    EXPECT_TRUE(repeats)
        << label << ": nontermination witness does not revisit a state";
    return;
  }

  const sched::SimWorld replayed =
      sched::replay(initial, violation.schedule);
  ASSERT_TRUE(replayed.terminal()) << label;
  const auto decisions = replayed.decisions();
  switch (violation.kind) {
    case sched::ViolationKind::kInconsistent: {
      std::set<std::uint64_t> distinct;
      for (const auto& d : decisions) {
        if (d) distinct.insert(*d);
      }
      EXPECT_GE(distinct.size(), 2u) << label;
      break;
    }
    case sched::ViolationKind::kInvalid: {
      const auto& inputs = replayed.inputs();
      const std::set<std::uint64_t> input_set(inputs.begin(), inputs.end());
      bool bad = false;
      for (const auto& d : decisions) {
        if (d && !input_set.contains(*d)) bad = true;
      }
      EXPECT_TRUE(bad) << label;
      break;
    }
    case sched::ViolationKind::kStalled:
      EXPECT_TRUE(replayed.any_killed()) << label;
      break;
    case sched::ViolationKind::kNontermination:
      break;  // handled above
  }
}

}  // namespace ff::testutil
