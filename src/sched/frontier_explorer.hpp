// Owner-computes frontier explorer (DESIGN.md §3i).
//
// A breadth-first wavefront engine over the same state graph the
// sequential DFS (sched/explorer.hpp) explores, and the repository's
// only multi-threaded exhaustive engine, built around three ideas:
//
//   * OWNER-COMPUTES SHARDING.  The canonical-fingerprint space is
//     hash-partitioned into shards, each owned by exactly one worker.  A
//     successor whose fingerprint lands in another worker's shard is
//     FORWARDED through a bounded SPSC handoff ring (util/handoff.hpp)
//     instead of being inserted under a striped lock, so every
//     fingerprint table has a single writer and needs no locking at all.
//     Every fingerprint is tested for novelty by exactly one owner, so
//     the visit-once invariant of the sequential search is preserved.
//
//   * MEMOIZED LANE STEPPING.  Process states are hash-consed into a
//     lane arena of StepMachines (a machine's encoded block determines
//     its behaviour — the StepMachine contract), so stepping is memoized
//     per (lane, returned value) transition — the compact-state kernel
//     of sched/lane_space.hpp, which the sequential DFS runs on too.
//     The memo answers over 99% of steps on the reference proofs; a miss
//     is stepped on a clone() of the lane's machine, so the engine needs
//     nothing from a factory beyond the MachineFactory interface.
//
//   * A LEAN CENSUS.  Per state the engine keeps its table entry
//     (fingerprint → id), a 4-byte parent id and, per non-terminal edge,
//     an 8-byte (from, to) pair for the cycle scan — no discovering
//     choice and no parent encoding.  A witness is re-derived once,
//     after the join: walk the parent ids to the root, then replay from
//     the root, keeping at each hop the first choice whose successor's
//     fingerprint resolves to the next id (sched/cycle_scan.hpp).
//
//   * DISK-SPILLED CENSUSES.  When the fingerprint tables exceed a
//     watermark, each worker writes its shard's table as a run file of
//     fp-sorted (fingerprint, id) entries to `spill_dir` and starts a
//     fresh table; later waves deduplicate by merge-joining their sorted
//     candidates against the runs, and witness re-derivation resolves a
//     spilled fingerprint by binary search of the runs.  Table memory is
//     bounded by the watermark; parent ids and the edge list the
//     nontermination scan needs are never spilled.
//
// The result satisfies the ExploreResult contract: the census
// (states_visited, terminal_states, agreed_values, violation counts per
// terminal kind) is BIT-EQUAL to the sequential explorer's on every
// input, with symmetry reduction composing through the same
// sched/reduce.hpp canonical fingerprints.  Differences by design:
//
//   * kNontermination counts process edges inside cyclic SCCs of the
//     explored graph, not DFS back-edges; compare presence, not counts.
//     The count and its witness come from the post-join cycle scan
//     (sched/cycle_scan.hpp), which peels the recorded edge lists before
//     it runs Tarjan on what is left.
//   * max_depth is the BFS radius (longest SHORTEST path from the
//     root), not the longest DFS path.
//   * Which violation is reported first differs from DFS order; the
//     frontier picks the lexicographically least (depth, fingerprint)
//     violating state, so ITS choice is deterministic across thread and
//     shard counts.  Witnesses strictly replay either way.
#pragma once

#include <cstdint>
#include <string>

#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

struct FrontierExploreOptions {
  ExploreOptions explore;
  /// Worker threads; 0 = hardware concurrency.
  std::uint32_t num_threads = 0;
  /// Fingerprint-space shards (rounded up to a power of two); 0 picks
  /// max(64, workers).  Each shard is owned by worker (shard % workers),
  /// so any count >= workers keeps every worker busy; the census is
  /// invariant under the shard count.
  std::uint32_t shard_count = 0;
  /// Directory for sorted spill runs.  Empty disables spilling (the
  /// engine then ignores mem_limit_bytes and keeps everything in RAM).
  std::string spill_dir;
  /// In-memory watermark over the fingerprint tables, the only census
  /// structure that spills (parent ids and cycle-scan edges stay in
  /// RAM).  0 = never spill.
  std::uint64_t mem_limit_bytes = 0;
};

/// Counters specific to the frontier engine, reported next to the
/// ExploreResult census by the CLI/bench front ends.
struct FrontierStats {
  std::uint64_t waves = 0;             ///< BFS levels expanded
  std::uint64_t forwarded = 0;         ///< cross-shard handoffs
  std::uint64_t spill_runs = 0;        ///< sorted runs written
  std::uint64_t spilled_records = 0;   ///< table entries in those runs
  std::uint64_t spill_bytes = 0;       ///< bytes written to spill_dir
  /// Memo misses stepped (clone() + deliver()), one per arena call;
  /// both counters keep their historical names and now read alike.
  std::uint64_t batch_sweeps = 0;
  std::uint64_t batched_lanes = 0;
  std::uint64_t memo_hits = 0;         ///< transitions answered by memo
  /// Distinct hash-consed lanes.  Under symmetry at more than one
  /// thread, which orbit representative a wave admits first decides
  /// which lanes get interned, so this count and the arena's share of
  /// peak_bytes may differ by one lane between runs; the census cannot.
  std::uint64_t arena_lanes = 0;

  friend bool operator==(const FrontierStats&,
                         const FrontierStats&) = default;
};

struct FrontierExploreResult {
  ExploreResult explore;
  FrontierStats stats;
};

/// Explores the full state graph of `SimWorld(config, factory, inputs)`
/// breadth-first.  The factory reference must outlive the call; every
/// machine it makes is stepped through the StepMachine interface alone,
/// so interpreted and generated factories take the same path.  An
/// exception a worker's step throws (std::out_of_range for an access
/// outside the layout, say) stops every worker and is rethrown here, on
/// the calling thread, after the join — the same exception explore()
/// lets through.
[[nodiscard]] FrontierExploreResult frontier_explore(
    const SimConfig& config, const MachineFactory& factory,
    const std::vector<std::uint64_t>& inputs,
    const FrontierExploreOptions& options = {});

}  // namespace ff::sched
