// Nontermination scan of the multi-threaded frontier explorer
// (frontier_explore).
//
// A breadth-first wave has no root-to-state DFS path to find back-edges
// on, so the engine records every explored transition between
// non-terminal states and, once its workers join, hands the per-worker
// edge lists to scan_cycles() and the result to add_nontermination().
// A process-step edge that lies on a cycle is a wait-freedom violation
// (kNontermination).
//
// The scan first PEELS the graph (Kahn): it removes every state whose
// in-degree drops to zero.  A state on a cycle never peels, so when
// everything peels the graph is acyclic and the scan is done in linear
// time over a successor CSR.  Otherwise an iterative Tarjan pass over
// the states that did not peel finds the exact SCCs, every process edge
// inside a cyclic SCC is counted, and the first such edge in list order
// (worker 0's list first) is closed into a lap by a BFS inside its SCC.
// The result is a function of the edge lists alone.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

/// One explored transition, as the frontier explorer records it.
/// Only non-terminal targets are recorded: a terminal state cannot sit
/// on a cycle.  `from`/`to` are the engine's sharded state ids,
/// (index << shard_bits) | shard.
struct CycleEdge {
  static constexpr std::uint8_t kFault = 1;
  static constexpr std::uint8_t kCrash = 2;
  static constexpr std::uint8_t kNoSlot = 0xFF;

  std::uint32_t from;
  std::uint32_t to;
  std::uint32_t pid;      ///< kAdversaryPid for an adversary step
  std::uint32_t variant;  ///< Choice::fault_variant
  std::uint8_t flags;     ///< kFault | kCrash
  /// Canonical slot of pid in `from`'s block order (kNoSlot without
  /// symmetry or for adversary steps).  Under symmetry a later walk may
  /// hold a different representative of `from` than the discoverer did;
  /// the slot resolves to an equivalent choice in any of them.
  std::uint8_t slot;

  [[nodiscard]] static CycleEdge of(std::uint32_t from, std::uint32_t to,
                                    const Choice& c, std::uint8_t slot) {
    return CycleEdge{from, to, c.pid, c.fault_variant,
                     static_cast<std::uint8_t>((c.fault ? kFault : 0) |
                                               (c.crash ? kCrash : 0)),
                     slot};
  }
  [[nodiscard]] Choice choice() const {
    return Choice{pid, (flags & kFault) != 0, variant, (flags & kCrash) != 0};
  }
  [[nodiscard]] bool process_step() const { return pid != kAdversaryPid; }
};
// The engine counts sizeof(CycleEdge) into its peak-bytes census.
static_assert(sizeof(CycleEdge) == 20);

struct CycleScanResult {
  /// Process-step edges inside cyclic SCCs.
  std::uint64_t process_cycle_edges = 0;
  /// States removed by the in-degree peel (all of them: acyclic).
  std::uint64_t peeled = 0;
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

/// Adds a scan's findings to `result`.  kNontermination counts every
/// cyclic process edge (one under stop_at_first_violation).  When
/// `result` holds no other violation, the witness is the engine's own
/// root → u path to the lap's first state u, then the lap, each slot
/// resolved against the representative the replay holds; under symmetry
/// close_symmetric_cycle extends the lap until the encoding closes
/// exactly.  `path_to(u, world)` returns that path and leaves `*world`,
/// a copy of `root`, at u.
void add_nontermination(
    const CycleScanResult& scan, const SimWorld& root, bool sym,
    const ExploreOptions& opts,
    const std::function<std::vector<Choice>(std::uint32_t, SimWorld*)>&
        path_to,
    ExploreResult& result);

}  // namespace ff::sched
