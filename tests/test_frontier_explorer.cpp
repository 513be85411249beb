// Differential-testing harness for the owner-computes frontier explorer
// (sched/frontier_explorer.hpp): the frontier census must be BIT-EQUAL
// to the sequential oracle's on every cell of two grids — the
// legacy-machine differential grid (hand-written StepMachines) and the
// simulable-registry × fault-kind × crash-budget grid (generated
// machines) — with symmetry reduction on and off, under forced
// spilling, and at any shard count.  Witnesses must strictly replay,
// including witnesses reconstructed out of spilled runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "explore_diff.hpp"
#include "legacy/machines.hpp"
#include "proto/registry.hpp"
#include "sched/explorer.hpp"
#include "sched/frontier_explorer.hpp"
#include "verify/run.hpp"

namespace ff {
namespace {

using model::FaultKind;
using model::kUnbounded;
using sched::ExploreOptions;
using sched::ExploreResult;
using sched::FrontierExploreOptions;
using sched::FrontierExploreResult;
using sched::ViolationKind;
using testutil::differential_grid;
using testutil::expect_witness_reproduces;
using testutil::full_space_options;
using testutil::GridCase;
using testutil::iota_inputs;

/// One cell of the registry grid: a registered protocol under a fault
/// kind and a crash budget, described as the canonical verify::JobSpec
/// the front ends would submit.  verify::instantiate() resolves the
/// config/factory/inputs the engines actually see — the test exercises
/// the same resolution path instead of re-deriving SimConfig by hand.
struct RegistryCase {
  std::string label;
  verify::JobSpec spec;
};

std::vector<RegistryCase> registry_grid() {
  std::vector<RegistryCase> grid;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    for (const FaultKind kind :
         {FaultKind::kNone, FaultKind::kOverriding, FaultKind::kSilent,
          FaultKind::kInvisible, FaultKind::kArbitrary,
          FaultKind::kNonresponsive}) {
      for (const std::uint32_t crash_budget : {0u, 1u}) {
        RegistryCase rc;
        rc.label = info.name + "/" + std::string(model::to_string(kind)) +
                   "/crash" + std::to_string(crash_budget);
        rc.spec.protocol = info.name;
        rc.spec.kind = kind;
        rc.spec.t = kind == FaultKind::kNone ? 0 : 1;
        rc.spec.crash_budget = crash_budget;
        rc.spec.processes = 2;
        rc.spec.engine = verify::Engine::kFrontier;
        rc.spec.killed_is_violation = kind == FaultKind::kNonresponsive;
        rc.spec.stop_at_first_violation = false;
        grid.push_back(std::move(rc));
      }
    }
  }
  return grid;
}

FrontierExploreOptions fopts(const ExploreOptions& explore,
                             std::uint32_t threads, std::uint32_t shards = 0) {
  FrontierExploreOptions options;
  options.explore = explore;
  options.num_threads = threads;
  options.shard_count = shards;
  return options;
}

/// Graph-derived quantities must match the oracle exactly;
/// kNontermination counts are traversal-defined (DFS back-edges vs
/// SCC-internal process edges), so only presence is compared.
void expect_census_matches(const ExploreResult& seq, const ExploreResult& fr,
                           const std::string& label) {
  EXPECT_TRUE(seq.complete) << label;
  EXPECT_TRUE(fr.complete) << label;
  EXPECT_EQ(seq.states_visited, fr.states_visited) << label;
  EXPECT_EQ(seq.terminal_states, fr.terminal_states) << label;
  EXPECT_EQ(seq.agreed_values, fr.agreed_values) << label;
  for (const ViolationKind kind :
       {ViolationKind::kInconsistent, ViolationKind::kInvalid,
        ViolationKind::kStalled}) {
    EXPECT_EQ(seq.violations_of(kind), fr.violations_of(kind))
        << label << " kind=" << sched::to_string(kind);
  }
  EXPECT_EQ(seq.violations_of(ViolationKind::kNontermination) > 0,
            fr.violations_of(ViolationKind::kNontermination) > 0)
      << label;
  EXPECT_EQ(seq.violation.has_value(), fr.violation.has_value()) << label;
  EXPECT_EQ(seq.immunity_checks, fr.immunity_checks) << label;
  EXPECT_EQ(seq.immunity_skips, fr.immunity_skips) << label;
}

void expect_frontier_matches_sequential(const sched::SimConfig& config,
                                        const sched::MachineFactory& factory,
                                        const std::vector<std::uint64_t>& inputs,
                                        const FrontierExploreOptions& options,
                                        const std::string& label) {
  const sched::SimWorld world(config, factory, inputs);
  const ExploreResult seq = sched::explore(world, options.explore);
  const FrontierExploreResult fr =
      frontier_explore(config, factory, inputs, options);
  expect_census_matches(seq, fr.explore, label);
  if (fr.explore.violation) {
    expect_witness_reproduces(world, *fr.explore.violation, label);
  }
}

// ---------------------------------------------------------------------------
// Legacy-machine grid: the scalar StepMachine arena path.
// ---------------------------------------------------------------------------

TEST(FrontierDifferential, LegacyGridTwoThreads) {
  for (const GridCase& gc : differential_grid()) {
    sched::SimConfig config;
    config.num_objects = gc.factory->objects_used();
    config.num_registers = gc.factory->registers_used();
    config.kind = gc.kind;
    config.t = gc.t;
    config.allow_corruption_steps = gc.corruption_steps;
    expect_frontier_matches_sequential(config, *gc.factory,
                                       iota_inputs(gc.n),
                                       fopts(full_space_options(gc), 2),
                                       gc.name + " threads=2");
  }
}

TEST(FrontierDifferential, LegacyGridSymmetryOff) {
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 3 != 0) continue;  // every third cell keeps runtime bounded
    ExploreOptions opts = full_space_options(gc);
    opts.symmetry_reduction = false;
    sched::SimConfig config;
    config.num_objects = gc.factory->objects_used();
    config.num_registers = gc.factory->registers_used();
    config.kind = gc.kind;
    config.t = gc.t;
    config.allow_corruption_steps = gc.corruption_steps;
    expect_frontier_matches_sequential(config, *gc.factory,
                                       iota_inputs(gc.n), fopts(opts, 4),
                                       gc.name + " sym=off");
  }
}

// ---------------------------------------------------------------------------
// Registry grid: every simulable protocol under every per-operation
// fault kind and crash budget 0/1 — the IR/generated batch path.
// ---------------------------------------------------------------------------

TEST(FrontierDifferential, RegistryGridWithCrashBudgets) {
  std::size_t compared = 0;
  for (const RegistryCase& rc : registry_grid()) {
    const verify::Instance instance = verify::instantiate(rc.spec);
    ExploreOptions opts;
    opts.stop_at_first_violation = rc.spec.stop_at_first_violation;
    opts.killed_is_violation = rc.spec.killed_is_violation;
    // A corrupted delivered value can drive an indexed protocol to an
    // out-of-range register (announce-cas under invisible/arbitrary
    // faults): the sequential oracle throws out_of_range there, so the
    // cell has no oracle verdict to compare against — skip it.
    try {
      (void)sched::explore(instance.world(), opts);
    } catch (const std::out_of_range&) {
      continue;
    }
    expect_frontier_matches_sequential(instance.config, *instance.factory,
                                       instance.inputs, fopts(opts, 4),
                                       rc.label);
    ++compared;
  }
  EXPECT_GE(compared, 80u);  // 8 protocols × 6 kinds × 2 budgets, few skips
}

// ---------------------------------------------------------------------------
// Shard invariance: the census is a property of the graph, not of the
// partitioning.
// ---------------------------------------------------------------------------

TEST(FrontierDifferential, ShardCountInvariance) {
  const auto factory = proto::machine_factory("staged");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.num_registers = factory->registers_used();
  config.kind = FaultKind::kOverriding;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const auto inputs = iota_inputs(3);
  for (const std::uint32_t shards : {1u, 2u, 8u}) {
    expect_frontier_matches_sequential(
        config, *factory, inputs, fopts(opts, 4, shards),
        "staged shards=" + std::to_string(shards));
  }
}

// ---------------------------------------------------------------------------
// Forced spill: a byte-sized watermark spills every wave; the census and
// the reconstructed witnesses must not change.
// ---------------------------------------------------------------------------

FrontierExploreOptions spill_opts(FrontierExploreOptions options,
                                  const std::string& subdir) {
  options.spill_dir =
      (std::filesystem::path(::testing::TempDir()) / subdir).string();
  options.mem_limit_bytes = 1;  // below any table: spill after every wave
  return options;
}

TEST(FrontierSpill, ForcedSpillCensusParity) {
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 4 != 0) continue;
    sched::SimConfig config;
    config.num_objects = gc.factory->objects_used();
    config.num_registers = gc.factory->registers_used();
    config.kind = gc.kind;
    config.t = gc.t;
    config.allow_corruption_steps = gc.corruption_steps;
    const FrontierExploreOptions options = spill_opts(
        fopts(full_space_options(gc), 2), "ff_spill_" + std::to_string(i));
    const FrontierExploreResult spilled =
        frontier_explore(config, *gc.factory, iota_inputs(gc.n), options);
    EXPECT_GT(spilled.stats.spill_runs, 0u) << gc.name;
    EXPECT_GT(spilled.stats.spilled_records, 0u) << gc.name;
    const sched::SimWorld world(config, *gc.factory, iota_inputs(gc.n));
    const ExploreResult seq = sched::explore(world, options.explore);
    expect_census_matches(seq, spilled.explore, gc.name + " spilled");
    if (spilled.explore.violation) {
      expect_witness_reproduces(world, *spilled.explore.violation,
                                gc.name + " spilled witness");
    }
  }
}

TEST(FrontierSpill, SpilledWitnessStrictReplay) {
  // Single-CAS under one silent fault violates agreement (the winning
  // CAS is lost); with a byte watermark the witness chain must be
  // walked back through the spilled runs by binary search and still
  // strictly replay.
  const auto factory = proto::machine_factory("single-cas");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.kind = FaultKind::kSilent;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const FrontierExploreOptions options =
      spill_opts(fopts(opts, 2), "ff_spill_witness");
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(2), options);
  EXPECT_GT(fr.stats.spill_runs, 0u);
  ASSERT_TRUE(fr.explore.violation.has_value());
  const sched::SimWorld world(config, *factory, iota_inputs(2));
  expect_witness_reproduces(world, *fr.explore.violation, "spilled witness");
}

// ---------------------------------------------------------------------------
// Nontermination, engine stats, and edge cases.
// ---------------------------------------------------------------------------

TEST(FrontierExplorer, NonterminationWitnessRevisitsState) {
  // §3.4: retry-silent under unboundedly many silent faults livelocks;
  // the SCC post-pass must find the cycle and produce a replayable lap.
  const auto factory = proto::machine_factory("retry-silent");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.kind = FaultKind::kSilent;
  config.t = kUnbounded;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(2), fopts(opts, 2));
  ASSERT_TRUE(fr.explore.violation.has_value());
  EXPECT_EQ(fr.explore.violation->kind, ViolationKind::kNontermination);
  const sched::SimWorld world(config, *factory, iota_inputs(2));
  expect_witness_reproduces(world, *fr.explore.violation, "retry-silent");
}

TEST(FrontierExplorer, StatsReflectBatchedStepping) {
  // The (lane, returned) memo must do the stepping: more transitions
  // answered by the memo than misses stepped, and at least one miss
  // stepped by at least one arena resolve call.  Lanes are hash-consed
  // and the peak-memory census is nonzero.
  const auto factory = proto::machine_factory("staged");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.num_registers = factory->registers_used();
  config.kind = FaultKind::kOverriding;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(3), fopts(opts, 4));
  EXPECT_TRUE(fr.explore.complete);
  EXPECT_GT(fr.stats.waves, 0u);
  EXPECT_GT(fr.stats.memo_hits, fr.stats.batched_lanes);
  EXPECT_GT(fr.stats.batched_lanes, 0u);
  EXPECT_GT(fr.stats.batch_sweeps, 0u);
  EXPECT_LE(fr.stats.batch_sweeps, fr.stats.batched_lanes);
  EXPECT_GT(fr.stats.arena_lanes, 0u);
  EXPECT_GT(fr.explore.peak_bytes, 0u);
  EXPECT_EQ(fr.stats.spill_runs, 0u);  // no spill_dir configured
}

TEST(FrontierExplorer, MaxStatesTruncationIsIncompleteNotWrong) {
  // A capped run must flag incompleteness and must not fabricate a
  // violation on a correct configuration.
  const auto factory = proto::machine_factory("staged");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.num_registers = factory->registers_used();
  config.kind = FaultKind::kOverriding;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.max_states = 10;
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(3), fopts(opts, 2));
  EXPECT_FALSE(fr.explore.complete);
  EXPECT_FALSE(fr.explore.violation.has_value());
}

TEST(FrontierExplorer, TerminalInitialState) {
  // A zero-process world is terminal at the root; the first dedup pass
  // interns it and wave 0 expands nothing.
  const auto factory = proto::machine_factory("single-cas");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, {}, fopts(ExploreOptions{}, 2));
  const sched::SimWorld world(config, *factory, {});
  const ExploreResult seq = sched::explore(world);
  EXPECT_EQ(seq.states_visited, fr.explore.states_visited);
  EXPECT_EQ(seq.terminal_states, fr.explore.terminal_states);
  EXPECT_EQ(seq.complete, fr.explore.complete);
  EXPECT_EQ(fr.stats.waves, 0u);
}

}  // namespace
}  // namespace ff
