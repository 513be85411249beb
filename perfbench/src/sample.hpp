// State-sampling harness for the sched.world.* and sched.reduce.*
// per-layer metrics.
//
// draw_sample() collects a fixed set of states of a workload's own jobs
// by seeded random walks through SimWorld::enabled() and apply().  The
// walks use only the workload seed and the benchmark's own generator,
// so one seed draws the same states on every commit whose simulator
// semantics are unchanged.  time_sample() then times each operation the
// explorers repeat per state or per edge on exactly those states.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/sim_world.hpp"

namespace perfbench {

/// States drawn per workload.
inline constexpr std::size_t kSampleStates = 512;

struct SampledState {
  ff::sched::SimWorld world;
  bool canonical = false;  ///< symmetry reduction applies to this state
};

/// Draws kSampleStates non-terminal states, cycling over `initial`
/// (one initial world per job).  `symmetric[i]` says whether job i
/// runs with symmetry reduction.
[[nodiscard]] std::vector<SampledState> draw_sample(
    const std::vector<ff::sched::SimWorld>& initial,
    const std::vector<bool>& symmetric, std::uint64_t seed);

struct SampleTimings {
  std::uint64_t states = 0;
  double edges_per_state = 0;  ///< mean enabled choices per sampled state
  double canonical_share = 0;  ///< share of states with symmetry on
  double enabled_ns = 0;       ///< SimWorld::enabled, per state
  double step_ns = 0;          ///< apply_with_undo + undo_step, per edge
  double encode_ns = 0;        ///< StateEncoder::encode, per state
  double patch_ns = 0;         ///< StateEncoder::patch, per edge
  double canon_ns = 0;         ///< canonical_slots, per state
  double fingerprint_ns = 0;   ///< fingerprint_state, per state
};

/// Times each operation over the whole sample; every figure is the
/// median of several timed sweeps.
[[nodiscard]] SampleTimings time_sample(const std::vector<SampledState>& sample);

}  // namespace perfbench
