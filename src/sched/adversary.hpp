// Scripted adversaries reproducing the executions the impossibility
// proofs construct.
//
// Theorem 19 (covering argument): with f CAS objects, t = 1 and n = f+2
// processes, the following execution defeats ANY candidate consensus
// protocol:
//   1. p0 runs solo to completion and decides its own input v0
//      (wait-freedom + validity force this);
//   2. for i = 1..f, pi runs solo until its first CAS on an object not
//      yet written by p1..p_{i-1}; that CAS suffers an overriding fault
//      (erasing whatever p0 left there) and pi is halted — Claim 20
//      guarantees pi reaches such a CAS;
//   3. every trace p0 left in the objects is now overwritten, so when
//      p_{f+1} runs solo it cannot distinguish this run from one where
//      p0 never ran, and decides some v ∈ {v1..v_{f+1}} ≠ v0.
//
// run_covering_adversary() drives exactly this schedule against any
// MachineFactory and reports whether the disagreement materialized and
// whether the side conditions (one fault per object, f faulty objects)
// held — i.e. it CHECKS the proof against a concrete protocol instead of
// trusting it.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sched/program.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

struct CoveringAdversaryResult {
  /// Claim 20: every pi (1 ≤ i ≤ f) reached a CAS on a fresh object.
  bool claim20_held = true;
  /// p0 and p_{f+1} both decided.
  bool both_decided = false;
  /// p0's decision differs from p_{f+1}'s — the consistency violation.
  bool disagreement = false;
  std::optional<std::uint64_t> p0_decision;
  std::optional<std::uint64_t> last_decision;
  /// Objects covered, in order (the O_{j_1} ... O_{j_f} of the proof),
  /// including those whose overriding fault would not have manifested
  /// (Definition 1) and so was not applied.
  std::vector<objects::ObjectId> faulted_objects;
  /// Manifested overriding faults per object (all entries must be ≤ 1,
  /// witnessing that t = 1 suffices for the lower bound).
  std::vector<std::uint32_t> faults_per_object;
  std::uint64_t total_steps = 0;
  std::vector<std::string> log;
};

/// Runs the Theorem 19 execution against `factory`'s protocol using
/// `f` objects and f+2 processes with inputs `inputs` (size f+2, distinct,
/// inputs[0] different from all others).  `step_cap` bounds each solo run
/// (a protocol that loops forever fails wait-freedom instead).
[[nodiscard]] CoveringAdversaryResult run_covering_adversary(
    const MachineFactory& factory, std::uint32_t f,
    const std::vector<std::uint64_t>& inputs, std::uint64_t step_cap = 100000);

}  // namespace ff::sched
