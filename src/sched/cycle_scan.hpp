// Nontermination scan and witness re-derivation of the multi-threaded
// frontier explorer (frontier_explore).
//
// A breadth-first wave has no root-to-state DFS path to find back-edges
// on, so the engine records every explored transition between
// non-terminal states as an 8-byte (from, to) pair and, once its workers
// join, hands the per-worker edge lists to scan_cycles() and the result
// to add_nontermination().  A process-step edge that lies on a cycle is a
// wait-freedom violation (kNontermination).
//
// The scan first PEELS the graph (Kahn): it removes every state whose
// in-degree drops to zero.  A state on a cycle never peels, so when
// everything peels the graph is acyclic and the scan is done in linear
// time over a successor CSR.  Otherwise an iterative Tarjan pass over
// the states that did not peel finds the exact SCCs, every process edge
// inside a cyclic SCC is counted, and the first such edge in list order
// (worker 0's list first) is closed into a lap by a BFS inside its SCC.
// The result is a function of the edge lists alone.
//
// The peel also counts its FIFO rounds, and on an acyclic graph that
// count is the wait-free bound at no extra bytes.  In the frontier's
// graph the states without an in-edge are the root and the terminal
// states, which get no recorded edges; every other state keeps the edge
// that discovered it and, being non-terminal, has a successor.  So the
// last round's index L is the longest path through non-terminal states,
// and the longest execution is L + 1 steps (0 when the root is
// terminal), which is the round count.
//
// Neither edges nor the engine's per-state census record WHICH choice
// took a step.  A witness is re-derived once, after the join, by
// rederive(): it walks a path of state ids from a concrete world and, at
// each hop, keeps the first enabled choice whose successor's fingerprint
// the engine resolves to the hop's target.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sched/explore_common.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

/// One explored transition, as the frontier explorer records it.
/// Only non-terminal targets are recorded: a terminal state cannot sit
/// on a cycle.  Ids are the engine's sharded state ids,
/// (index << shard_bits) | shard, which are 31-bit, so the top bit of
/// `from` is free to mark an adversary step.
struct CycleEdge {
  static constexpr std::uint32_t kAdversary = 0x80000000u;

  std::uint32_t from;  ///< source id, | kAdversary for an adversary step
  std::uint32_t to;    ///< target id

  [[nodiscard]] std::uint32_t source() const { return from & ~kAdversary; }
  [[nodiscard]] bool process_step() const { return (from & kAdversary) == 0; }
};
// The engine counts sizeof(CycleEdge) into its peak-bytes census.
static_assert(sizeof(CycleEdge) == 8);

struct CycleScanResult {
  /// Process-step edges inside cyclic SCCs.
  std::uint64_t process_cycle_edges = 0;
  /// States removed by the in-degree peel (all of them: acyclic).
  std::uint64_t peeled = 0;
  /// FIFO rounds of the peel: round 0 is every state without an
  /// in-edge, round k + 1 every state whose last in-edge came from round
  /// k.  A state's round is thus the longest path to it from a state
  /// without an in-edge.  When every state peels, the rounds number one
  /// more than the longest path in the graph.
  std::uint32_t peel_rounds = 0;
  /// Empty when process_cycle_edges == 0.  Otherwise the first cyclic
  /// process edge u → v in list order, then a shortest v → … → u path
  /// inside its SCC: consecutive edges that end back at u.
  std::vector<const CycleEdge*> lap;
};

/// Scans the graph whose states are the sharded ids
/// (i << shard_bits) | s for i < shard_sizes[s], with
/// shard_sizes.size() == 1 << shard_bits, and whose edges are the
/// concatenation of `lists` in order.  The returned lap points into
/// `lists`.
[[nodiscard]] CycleScanResult scan_cycles(
    const std::vector<std::uint32_t>& shard_sizes, std::uint32_t shard_bits,
    const std::vector<std::span<const CycleEdge>>& lists);

/// The engine's id of the censused state with a fingerprint, or any
/// value that is no id when no such state was censused.
using IdOf = std::function<std::uint32_t(const detail::Fingerprint&)>;

/// Re-derives the choices of `hops`, consecutive explored edges whose
/// first edge leaves the state `world` holds.  At each hop it keeps the
/// first of world.enabled()'s choices whose successor's fingerprint
/// (fingerprint_state, canonical under `sym`) `id_of` resolves to the
/// hop's target, and applies it; with `match_kind` the choice must
/// also be a process step exactly when the hop is.  `world` ends at the
/// last target.  Throws std::runtime_error when no choice re-derives a
/// hop, which means the engine lost a censused state (a fingerprint
/// collision or an engine bug).
[[nodiscard]] std::vector<Choice> rederive(SimWorld& world,
                                           std::span<const CycleEdge> hops,
                                           bool match_kind, bool sym,
                                           const IdOf& id_of);

/// Adds a scan's findings to `result`.  kNontermination counts every
/// cyclic process edge (one under stop_at_first_violation).  When
/// `result` holds no other violation, the witness is the engine's own
/// root → u path to the lap's first state u, then the lap re-derived by
/// rederive() with each hop's kind matched; under symmetry
/// close_symmetric_cycle extends the lap until the encoding closes
/// exactly.  `path_to(u, world)` returns that path and leaves `*world`,
/// a copy of `root`, at u.
void add_nontermination(
    const CycleScanResult& scan, const SimWorld& root, bool sym,
    const ExploreOptions& opts,
    const std::function<std::vector<Choice>(std::uint32_t, SimWorld*)>&
        path_to,
    const IdOf& id_of, ExploreResult& result);

}  // namespace ff::sched
