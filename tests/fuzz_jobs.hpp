// Fuzz jobs shared by the fuzzer's campaign-pin and step-cost tests:
// JobSpecs resolved through verify::instantiate, and the FuzzOptions that
// verify::execute derives from a fuzz job.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "model/fault_kind.hpp"
#include "sched/fuzzer.hpp"
#include "verify/job.hpp"

namespace ff::testutil {

/// FuzzOptions exactly as verify::execute sets them for a fuzz job.
[[nodiscard]] inline sched::FuzzOptions fuzz_options_of(
    const verify::JobSpec& spec) {
  sched::FuzzOptions options;
  options.seed = spec.seed;
  options.budget.max_units = spec.fuzz_steps;
  options.budget.max_millis = spec.fuzz_millis;
  options.max_execs = spec.fuzz_execs;
  options.killed_is_violation = spec.killed_is_violation;
  options.stop_at_first_violation = spec.stop_at_first_violation;
  options.shrink = spec.shrink;
  options.symmetry_reduction = spec.symmetry_reduction;
  return options;
}

[[nodiscard]] inline verify::JobSpec fuzz_job(
    std::string protocol, std::map<std::string, std::uint64_t> params,
    model::FaultKind kind, std::uint32_t t, std::uint32_t n) {
  verify::JobSpec spec;
  spec.protocol = std::move(protocol);
  spec.params = std::move(params);
  spec.kind = kind;
  spec.t = t;
  spec.processes = n;
  spec.engine = verify::Engine::kFuzz;
  return spec;
}

/// The benchmark's proof-sym job: staged f=2 t=1 n=3 under overriding
/// faults, symmetry on.  Violation-free, so a campaign spends its whole
/// budget while the corpus fills.
[[nodiscard]] inline verify::JobSpec proof_sym_job() {
  verify::JobSpec spec = fuzz_job("staged", {{"f", 2}, {"t", 1}},
                                  model::FaultKind::kOverriding, 1, 3);
  spec.symmetry_reduction = true;
  return spec;
}

/// The benchmark's proof-crash job: recoverable-staged f=2 t=1 n=2 with
/// three crashes per process, symmetry off.  Violation-free.
[[nodiscard]] inline verify::JobSpec proof_crash_job() {
  verify::JobSpec spec = fuzz_job("recoverable-staged", {{"f", 2}, {"t", 1}},
                                  model::FaultKind::kOverriding, 1, 2);
  spec.crash_budget = 3;
  spec.symmetry_reduction = false;
  return spec;
}

}  // namespace ff::testutil
