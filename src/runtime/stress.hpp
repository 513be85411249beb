// Randomized stress campaigns: many real-thread consensus trials with
// varying inputs and schedule jitter, aggregated into a report.
//
// A campaign is the workhorse of the E-series experiments at parameter
// sizes the exhaustive simulator cannot reach.  Correctness experiments
// assert `report.all_ok()`; impossibility experiments instead *search*
// for violations and report how quickly they surface.
//
// Seed stability: every pseudo-random input of a campaign — the per-trial
// proposal values (make_inputs) and the per-thread start stagger — is a
// pure function of (options.seed, trial index).  Two campaigns with
// identical StressOptions therefore present identical stimuli to the
// protocol; what can still vary between runs is only the OS-level thread
// interleaving inside a trial.  For protocols whose verdict and per-call
// step counts are schedule-independent (e.g. single-CAS: exactly one CAS
// per decide()), the full StressReport — counters and step statistics —
// is reproduced exactly; tests/test_determinism.cpp pins this guarantee.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "consensus/consensus.hpp"
#include "runtime/budget.hpp"
#include "runtime/thread_runner.hpp"
#include "util/stats.hpp"

namespace ff::runtime {

struct StressOptions {
  std::uint32_t processes = 2;
  /// Campaign budget (shared abstraction — see runtime/budget.hpp):
  /// units are trials here; the deadline, if set, is polled between
  /// trials.  A deadline-truncated campaign simply reports fewer trials.
  BudgetSpec budget{.max_units = 100, .max_millis = 0};
  std::uint64_t seed = 0xc0ffee;
};

struct StressReport {
  std::uint64_t trials = 0;
  std::uint64_t ok = 0;
  std::uint64_t inconsistent = 0;
  std::uint64_t invalid = 0;
  std::uint64_t undecided = 0;
  util::StreamingStats steps_per_process;
  /// Trial index of the first violation, if any.
  std::optional<std::uint64_t> first_violation;

  [[nodiscard]] bool all_ok() const noexcept { return ok == trials; }
  [[nodiscard]] std::uint64_t violations() const noexcept {
    return trials - ok;
  }
  [[nodiscard]] double ok_rate() const noexcept {
    return trials == 0 ? 1.0
                       : static_cast<double>(ok) / static_cast<double>(trials);
  }
};

/// Called before each trial, after protocol.reset(); use it to reset
/// budgets, policies and trace sinks.
using TrialSetupHook = std::function<void(std::uint64_t trial)>;
/// Called after each trial with the outcome; use it for trace checks.
using TrialCheckHook =
    std::function<void(std::uint64_t trial, const TrialOutcome& outcome)>;

[[nodiscard]] inline StressReport run_stress(consensus::Protocol& protocol,
                                             const StressOptions& options,
                                             const TrialSetupHook& setup = {},
                                             const TrialCheckHook& check = {}) {
  StressReport report;
  BudgetMeter meter(options.budget);
  for (std::uint64_t trial = 0; !meter.expired() && meter.charge(1);
       ++trial) {
    protocol.reset();
    if (setup) setup(trial);

    const auto inputs =
        make_inputs(options.processes, trial, options.seed);
    const std::uint64_t stagger = util::mix64(options.seed ^ (trial + 1));
    const TrialOutcome outcome = run_trial(protocol, inputs, stagger);

    ++report.trials;
    if (outcome.verdict.ok()) {
      ++report.ok;
    } else {
      if (!outcome.verdict.all_decided) ++report.undecided;
      if (!outcome.verdict.consistent) ++report.inconsistent;
      if (!outcome.verdict.valid) ++report.invalid;
      if (!report.first_violation) report.first_violation = trial;
    }
    for (const auto& d : outcome.decisions) {
      report.steps_per_process.add(static_cast<double>(d.cas_steps));
    }
    if (check) check(trial, outcome);
  }
  return report;
}

}  // namespace ff::runtime
