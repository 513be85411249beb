// Coverage-guided schedule fuzzer over SimWorld — the tool for hunting
// violating schedules at (f, t, n) sizes where the exhaustive explorers
// are intractable and unguided random walks rarely leave the well-trodden
// part of the state space.
//
// How it works:
//   * Generation.  Each execution either performs a fresh PCT-style
//     priority walk (random process priorities with a few priority-change
//     points, faults fired with a fixed bias — after Burckhardt et al.'s
//     probabilistic concurrency testing) or mutates a schedule from
//     the corpus: splice two schedules, truncate-and-replay with a random
//     tail, swap two process identities throughout, or nudge fault points
//     (toggle/move/revariant a fault).  Mutated schedules are re-resolved
//     against the live world step by step, so every recorded schedule is
//     a real, replayable choice sequence from the initial state.
//   * Coverage.  The 128-bit state fingerprints of the explorers double
//     as the novelty signal: an execution enters the corpus iff it
//     reached a fingerprint never seen before.  See DESIGN.md §3b for
//     why this is a sound novelty signal under fault nondeterminism.
//   * Oracle.  Terminal states are checked exactly like the explorers
//     (consistency, validity, optional stall); a revisited state with a
//     process step in the repeated segment is a machine-checked
//     wait-freedom violation (the cycle is real, not a timeout guess).
//   * Shrinking.  shrink_witness() reduces a violating schedule to a
//     locally-minimal witness: no contiguous chunk (any size) can be
//     removed and no single choice can be replaced by a smaller enabled
//     one without losing the violation.  Deterministic and idempotent;
//     every candidate is verified by strict replay.
//
// Determinism: with no wall-clock deadline configured, the entire run —
// corpus, coverage set, violation schedules, final RNG state — is a pure
// function of (initial world, FuzzOptions).  FuzzResult::to_json()
// serializes all of it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/budget.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

struct FuzzOptions {
  std::uint64_t seed = 1;
  /// Fuzzing budget (shared abstraction — see runtime/budget.hpp):
  /// units are simulated steps summed over all executions; the deadline,
  /// if set, is polled between executions.  An exhausted budget stops
  /// the run with complete = false and fabricates nothing.
  runtime::BudgetSpec budget{.max_units = 2'000'000, .max_millis = 0};
  /// Stop after this many executions (0 = run until the budget ends).
  std::uint64_t max_execs = 0;
  /// Count terminal states with killed processes as kStalled.
  bool killed_is_violation = false;
  /// Stop the whole run at the first violation (complete stays false,
  /// mirroring the explorers' early-stop semantics).
  bool stop_at_first_violation = true;
  /// Stop once a witness for every kind in this set has been found
  /// (empty = no such stop).  Used by differential tests that know the
  /// explorer's violation census.
  std::set<ViolationKind> stop_after_kinds;
  /// Run shrink_witness on the first violation before returning it.
  bool shrink = true;
  /// Use canonical (process-permutation orbit) fingerprints for the
  /// coverage/novelty signal when the world is processes_symmetric(), so
  /// the fuzzer does not waste budget re-discovering permuted replays of
  /// states it has already covered.  The in-execution cycle oracle keeps
  /// EXACT fingerprints regardless: a nontermination verdict still
  /// requires a strict state revisit.  No effect on asymmetric worlds.
  bool symmetry_reduction = true;
};

struct FuzzStats {
  std::uint64_t executions = 0;       ///< completed (evaluated) executions
  std::uint64_t total_steps = 0;      ///< budget units consumed
  std::uint64_t corpus_entries = 0;
  std::uint64_t unique_states = 0;    ///< coverage fingerprints seen
  std::uint64_t violations_found = 0;
  std::optional<std::uint64_t> first_violation_exec;
  /// Witness lengths before/after shrinking (0/0 when nothing shrunk).
  std::uint64_t witness_steps_found = 0;
  std::uint64_t witness_steps_shrunk = 0;
};

struct FuzzResult {
  /// True iff the run finished its requested work (max_execs reached or
  /// stop_after_kinds satisfied) without exhausting the budget.  Early
  /// stop at the first violation and budget/deadline truncation both
  /// report false, mirroring ExploreResult::complete.
  bool complete = false;
  FuzzStats stats;
  std::map<ViolationKind, std::uint64_t> violations_by_kind;
  /// First witness found per kind, exactly as discovered (unshrunk).
  std::map<ViolationKind, Violation> first_by_kind;
  /// First violation overall; shrunk when options.shrink is set.
  std::optional<Violation> violation;
  /// The same violation exactly as discovered (always unshrunk).
  std::optional<Violation> original_violation;
  /// Coverage-novel schedules, each replayable from the initial world.
  std::vector<std::vector<Choice>> corpus;
  /// Sorted 128-bit coverage fingerprints (a, b) — the novelty set.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> coverage;
  /// Final PRNG state (xoshiro256**), for resuming a campaign exactly.
  std::array<std::uint64_t, 4> rng_state{};

  [[nodiscard]] std::uint64_t violations_of(ViolationKind kind) const {
    const auto it = violations_by_kind.find(kind);
    return it == violations_by_kind.end() ? 0 : it->second;
  }

  /// Serializes the whole result — stats, census, witnesses, corpus,
  /// coverage set, RNG state — as a single JSON object.
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] FuzzResult fuzz(const SimWorld& initial,
                              const FuzzOptions& options = {});

/// Strictly replays `schedule` from a fresh copy of `initial` (each
/// choice must be enabled at its state — otherwise nullopt) and returns
/// the violation kind it exhibits, if any: a violating terminal state,
/// or a final state equal to an earlier one with a process step in the
/// repeated segment (nontermination).
[[nodiscard]] std::optional<ViolationKind> classify_schedule(
    const SimWorld& initial, const std::vector<Choice>& schedule,
    bool killed_is_violation = false);

/// Delta-debugging minimizer: returns a schedule that still exhibits
/// violation kind `kind` (verified by strict replay at every candidate)
/// and is locally minimal — removing ANY contiguous chunk of ANY size
/// no longer violates, and no choice can be canonicalized to a smaller
/// enabled one (lower pid, clean instead of faulty, lower variant).
/// Deterministic and idempotent; returns the input unchanged if it does
/// not itself exhibit `kind`.
[[nodiscard]] std::vector<Choice> shrink_witness(
    const SimWorld& initial, const std::vector<Choice>& schedule,
    ViolationKind kind, bool killed_is_violation = false);

}  // namespace ff::sched
