// Explorer — exhaustive search over all interleavings AND all legal fault
// placements of a protocol run in SimWorld.
//
// The search is a depth-first traversal of the state graph with
// memoization: global states are fingerprinted (128-bit) and each state is
// expanded once.  It steps compact states through sched/lane_space.hpp,
// whose machine steps are memoized per (lane, returned value).  Because
// fault firing is an explicit adversary branch, a completed exploration
// is a proof (up to fingerprint collisions, probability ~ |states|²/2^128,
// and lane-key collisions, ~ |lanes|²/2^128 with far fewer lanes than
// states) that NO schedule and NO fault placement within the configured
// (f, t) budget violates the checked property —
// this is how the upper-bound theorems are validated, and how the
// impossibility theorems' violating executions are found automatically.
//
// Detected violations:
//   * kInconsistent — a terminal state where two processes decided
//     different values;
//   * kInvalid      — a terminal state where a decision is not an input;
//   * kStalled      — a terminal state with a killed (nonresponsive)
//     process, when the caller opted in;
//   * kNontermination — a reachable cycle containing at least one process
//     step: some schedule lets a process run forever without deciding,
//     violating wait-freedom.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sched/sim_world.hpp"

namespace ff::sched {

enum class ViolationKind : std::uint8_t {
  kInconsistent,
  kInvalid,
  kStalled,
  kNontermination,
};

[[nodiscard]] constexpr std::string_view to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kInconsistent: return "inconsistent";
    case ViolationKind::kInvalid: return "invalid";
    case ViolationKind::kStalled: return "stalled";
    case ViolationKind::kNontermination: return "nontermination";
  }
  return "unknown";
}

struct Violation {
  ViolationKind kind;
  /// Witness schedule from the initial state (choice sequence).
  std::vector<Choice> schedule;
  std::string detail;

  [[nodiscard]] std::string schedule_string() const {
    std::string s;
    for (const Choice& c : schedule) {
      if (!s.empty()) s += ' ';
      s += c.to_string();
    }
    return s;
  }

  friend bool operator==(const Violation&, const Violation&) = default;
};

struct ExploreOptions {
  /// Abort after this many distinct states (0 = unlimited).
  std::uint64_t max_states = 20'000'000;
  /// Stop at the first violation (otherwise keep counting them).
  bool stop_at_first_violation = true;
  /// Count terminal states with killed processes as kStalled violations.
  bool killed_is_violation = false;
  /// Memoize on canonical fingerprints (process-permutation orbits) when
  /// the world is processes_symmetric(): the search visits one
  /// representative per orbit.  All checked properties are orbit-
  /// invariant (DESIGN.md §3d), counts become per-orbit counts, and
  /// witnesses stay directly replayable.  No effect on asymmetric worlds.
  bool symmetry_reduction = true;
  /// Hint for pre-sizing the fingerprint table and search containers
  /// (0 = derive from max_states, capped).
  std::uint64_t expected_states = 0;
  /// Also return the wait-free bound (ExploreResult::wait_free_bound),
  /// read off the census's own traversal.  The DFS pays 4 bytes per
  /// state for it, so it is off unless asked for.
  bool wait_free_bound = false;
};

struct ExploreResult {
  std::uint64_t states_visited = 0;
  std::uint64_t terminal_states = 0;
  std::uint64_t violations_found = 0;
  /// Violations per kind (useful with stop_at_first_violation = false,
  /// e.g. for graceful-degradation analysis: which properties break and
  /// which survive when budgets are exceeded).
  std::map<ViolationKind, std::uint64_t> violations_by_kind;
  std::uint64_t max_depth = 0;
  /// True iff the whole reachable state space was covered within limits
  /// (when a first-violation stop occurs this is false).
  bool complete = false;
  std::optional<Violation> violation;
  /// Agreed values observed across consistent terminal states.
  std::set<std::uint64_t> agreed_values;
  /// Mid-run rehashes of the fingerprint table.  0 exactly when
  /// expected_states pre-sized the table for the whole census — the
  /// regression signal for the stale-pre-size path.
  std::uint64_t table_grows = 0;
  /// A2 immunity-pruning tallies for THIS search: overriding-fault
  /// enabling conditions evaluated brute-force vs skipped outright via a
  /// proved-immune object.  The
  /// prune factor (checks+skips)/checks ≥ 1 measures the branch-factor
  /// reduction ffcheck's A2 bought (bench_b3's `immune_prune_factor`).
  std::uint64_t immunity_checks = 0;
  std::uint64_t immunity_skips = 0;
  /// Peak bytes the engine's search structures held: fingerprint
  /// tables, the lane arena and memo tables, the DFS's stack and state
  /// arenas, and the frontier's parent ids, wave buffers, handoff rings
  /// and cycle-scan edges.  A capacity census of the monotone
  /// structures, not an allocator trace — comparable across engines
  /// and runs, and cheap enough to always collect.
  std::uint64_t peak_bytes = 0;
  /// Longest execution, in total steps, over every schedule and fault
  /// placement — a machine-checked wait-freedom bound: every process
  /// finishes within this many steps of the system whatever the
  /// adversary does.  Set only with ExploreOptions::wait_free_bound, on a
  /// complete run whose state graph has no cycle (an adversary-only
  /// cycle included: some execution never ends).  Distances are
  /// orbit-invariant, so symmetry reduction leaves the bound unchanged.
  std::optional<std::uint64_t> wait_free_bound;

  [[nodiscard]] std::uint64_t violations_of(ViolationKind kind) const {
    const auto it = violations_by_kind.find(kind);
    return it == violations_by_kind.end() ? 0 : it->second;
  }
};

[[nodiscard]] ExploreResult explore(const SimWorld& initial,
                                    const ExploreOptions& options = {});

/// Replays a witness schedule from a fresh copy of `initial`, returning
/// the resulting world (for inspecting / pretty-printing violations).
[[nodiscard]] SimWorld replay(const SimWorld& initial,
                              const std::vector<Choice>& schedule);

/// Breadth-first search for a MINIMAL-length violating execution.
/// Returns the violation with the shortest possible witness schedule, or
/// nullopt when no violation is reachable within `max_states` (which,
/// when the search completes, is a proof of correctness like explore()).
/// More memory-hungry than explore() — every frontier state is retained —
/// so use it on configurations already known (or suspected) to violate,
/// where the frontier stays small.  Detects terminal-state violations
/// only (no cycle/nontermination detection — use explore() for that).
struct ShortestViolationResult {
  std::optional<Violation> violation;
  std::uint64_t states_visited = 0;
  bool complete = false;
};
[[nodiscard]] ShortestViolationResult find_shortest_violation(
    const SimWorld& initial, const ExploreOptions& options = {});

}  // namespace ff::sched
