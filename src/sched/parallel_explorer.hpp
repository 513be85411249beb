// Parallel exhaustive explorer — the multi-core counterpart of explore().
//
// N worker threads expand a work-stealing frontier of SimWorld states over
// a sharded, striped-lock 128-bit fingerprint table.  Each distinct state
// is claimed by exactly one worker at table-insertion time, so every state
// is expanded once, exactly as in the sequential depth-first search — the
// two explorers visit the SAME reachable set and therefore agree on
// states_visited, terminal_states, per-terminal violation counts and the
// agreed-value set (the differential harness in
// tests/test_parallel_explorer.cpp asserts this on a protocol × fault ×
// budget grid).
//
// Witnesses are reconstructed from per-state parent/choice back-pointers
// recorded at first discovery; nontermination (a reachable cycle with a
// process step) is detected after the workers join by the cycle scan
// shared with frontier_explore (sched/cycle_scan.hpp: an in-degree peel
// that settles an acyclic graph in linear time, then Tarjan SCCs over
// what did not peel) — cycle detection cannot ride on DFS back-edges
// here, because with a shared visited table no single worker owns a
// root-to-state path.
//
// Differences from the sequential explorer, by design:
//   * `violation` holds SOME violation, not the DFS-first one; its witness
//     replays to a violation of the reported kind, but which violating
//     state is chosen depends on worker timing.
//   * `max_depth` measures discovery-tree depth, not DFS stack depth.
//   * kNontermination is counted as the number of process-step edges
//     inside cyclic SCCs (order-independent), where the sequential DFS
//     counts traversal-order-dependent back-edges.  Presence/absence
//     always agrees.
//   * On an aborted run (state cap, stop-at-first) the partial counters
//     depend on worker timing, exactly as sequential partial counters
//     depend on DFS order.  `complete` semantics are identical.
#pragma once

#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

struct ParallelExploreOptions {
  /// Property/limit options shared with the sequential explorer.
  ExploreOptions explore;
  /// Worker threads (0 = std::thread::hardware_concurrency()).
  std::uint32_t num_threads = 0;
  /// Stripes of the fingerprint table (rounded up to a power of two).
  std::uint32_t shard_count = 64;
  /// States a thief moves per steal; also the local-queue share donated.
  std::uint32_t chunk_size = 16;
};

[[nodiscard]] ExploreResult parallel_explore(
    const SimWorld& initial, const ParallelExploreOptions& options = {});

}  // namespace ff::sched
