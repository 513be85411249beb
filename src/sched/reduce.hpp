// State-space reduction: process-symmetry canonicalization, shared by the
// sequential and frontier explorers, the BFS witness minimizer and the
// fuzzer's novelty signal.  DESIGN.md §3d
// carries the soundness argument; the short version:
//
//   When every machine is pid-oblivious (MachineFactory::pid_oblivious)
//   and no fault rule names a process (SimWorld::processes_symmetric),
//   any permutation π of process ids maps executions to executions:
//   shared objects, registers and fault budgets are process-anonymous,
//   and a machine's behaviour is a function of its encoded block alone.
//   All checked properties (agreement, validity, stall, nontermination)
//   are invariant under π, so it suffices to visit one representative
//   per orbit.  We keep REAL worlds on the search structures and only
//   canonicalize the memoization key: the canonical fingerprint hashes
//   the shared prefix followed by an order-insensitive combine of the
//   per-process blocks.  Witnesses therefore remain directly replayable
//   schedules.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sched/explore_common.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

// ---------------------------------------------------------------------------
// Block-structured encodings.
// ---------------------------------------------------------------------------

/// One encoded SimWorld in block form: the shared prefix followed by one
/// block per process (pid order), with offsets so individual blocks can
/// be compared, re-sorted and patched without re-encoding the world.
struct EncodedState {
  std::vector<std::uint64_t> words;
  std::uint32_t shared_len = 0;
  /// block_off[p]..block_off[p+1] is process p's block; size processes+1.
  std::vector<std::uint32_t> block_off;

  [[nodiscard]] std::uint32_t processes() const noexcept {
    return block_off.empty()
               ? 0
               : static_cast<std::uint32_t>(block_off.size() - 1);
  }
};

/// Encoder with reusable scratch buffers: full encodes for roots, and
/// incremental patches for children (only the shared prefix and the
/// stepping process's block are re-encoded; an adversary step re-encodes
/// the shared prefix alone).
class StateEncoder {
 public:
  /// Full block-structured encode of `world` into `out`.
  void encode(const SimWorld& world, EncodedState& out);

  /// Incremental encode of `child`, which differs from the world encoded
  /// as `parent` by one applied Choice of process `changed_pid`
  /// (kAdversaryPid for adversary corruption steps).
  void patch(const SimWorld& child, const EncodedState& parent,
             objects::ProcessId changed_pid, EncodedState& out);

 private:
  std::vector<std::uint64_t> scratch_;
};

/// The canonical block order: process indices sorted by lexicographic
/// block content, ties by pid (so the order is deterministic).  Appends
/// nothing to `e`; writes the permutation into `order`.
void canonical_order(const EncodedState& e, std::vector<std::uint32_t>& order);

/// Inverse of canonical_order: slot_of[pid] = position of pid's block in
/// the canonical order.
void canonical_slots(const EncodedState& e, std::vector<std::uint32_t>& slot_of);

/// FpFold hash of one contiguous block of words (the per-process block
/// hash feeding the canonical fingerprint's multiset combine).
[[nodiscard]] detail::Fingerprint hash_block(const std::uint64_t* begin,
                                             const std::uint64_t* end);

/// Canonical fingerprint from precombined parts: folds the shared
/// prefix, then the order-insensitive block-hash sums.  An engine that
/// maintains (sum_a, sum_b) incrementally — one process block changes
/// per transition, so subtract the old block's hash_block and add the
/// new one — gets the exact value fingerprint_state(e, true) computes
/// from scratch, without materializing the child encoding.
[[nodiscard]] detail::Fingerprint fingerprint_shared_sum(
    const std::uint64_t* shared, std::uint32_t shared_len,
    std::uint64_t sum_a, std::uint64_t sum_b);

/// Fingerprint of the state.  `canonical` folds the shared prefix and
/// an order-insensitive combine of the per-process block hashes, so two
/// states equal up to a process permutation collide on purpose;
/// otherwise this equals detail::fingerprint(e.words).
[[nodiscard]] detail::Fingerprint fingerprint_state(const EncodedState& e,
                                                    bool canonical);

/// Materialized canonical word sequence (shared prefix + sorted blocks).
/// Test/diagnostic helper; the explorers only ever hash it.
[[nodiscard]] std::vector<std::uint64_t> canonical_words(const EncodedState& e);

/// A permutation π with mate's block at π[p] equal to base's block at p
/// (and equal shared prefixes) — i.e. mate = π·base up to encoding.
/// nullopt when the states are not orbit-mates.
[[nodiscard]] std::optional<std::vector<std::uint32_t>> match_permutation(
    const EncodedState& base, const EncodedState& mate);

/// Applies π to the pids of a schedule (adversary steps are fixed points).
[[nodiscard]] std::vector<Choice> permute_pids(
    const std::vector<Choice>& schedule, const std::vector<std::uint32_t>& pi);

/// Symmetric-cycle closure.  `segment` leads from `ancestor` to an
/// orbit-mate of it (equal canonical encodings).  Returns an extended
/// schedule that leads from `ancestor` back to a state with the EXACT
/// same encoding, by replaying the segment under successive powers of the
/// matched permutation (at most `max_laps` laps — the permutation's order
/// is at most lcm(1..n), tiny for explorable n).  nullopt only if the
/// states are not actually orbit-mates or the lap cap is hit.
[[nodiscard]] std::optional<std::vector<Choice>> close_symmetric_cycle(
    const SimWorld& ancestor, const std::vector<Choice>& segment,
    std::uint32_t max_laps = 5040);

}  // namespace ff::sched
