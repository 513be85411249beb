// Compact states and memoized stepping, shared by the sequential DFS
// (sched/explorer.cpp) and the frontier engine (DESIGN.md §3d, §3i).
//
// A StepMachine's behaviour is a function of its encoded block — the
// StepMachine contract the explorers' state memoization already relies
// on — so machine states are hash-consed into LANES, and a step is a pure
// function of (lane, returned value).  The arena memoizes it, and an
// engine walks the state graph over compact states instead of SimWorlds:
//
//   [0 .. S)      shared words, exactly SimWorld::encode_shared()
//   [S .. S+n)    per pid: lane | crashes << 32 | killed << 48
//
// LaneSpace steps that layout by the same StepRule (sched/step_rule.hpp)
// that steps SimWorld, so enabled() lists the same choices in the same
// order and apply() reaches the state SimWorld::apply() reaches; what it
// keeps is the layout: the arena, the memo, and encode() equal to
// SimWorld::encode() word for word, with fingerprint() equal to
// fingerprint_state(encode(world), sym).  tests/test_lane_space.cpp
// checks all of them in lockstep against SimWorld.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sched/explore_common.hpp"
#include "sched/explorer.hpp"
#include "sched/reduce.hpp"
#include "sched/sim_world.hpp"
#include "sched/step_rule.hpp"

namespace ff::sched {

/// What the arena knows about one lane without stepping it.  40 bytes:
/// the frontier's peak_bytes census counts it per lane slot.
struct LaneMeta {
  /// Next step; kNone when halted, and then op.desired holds the
  /// decision (a halted machine has no pending op to describe).
  PendingOp op;
  const std::uint64_t* words = nullptr;  ///< the machine's encode() words
  objects::ProcessId pid = 0;
  std::uint16_t words_len = 0;
  bool done = false;
  bool can_crash = false;

  [[nodiscard]] std::uint64_t decision() const noexcept {
    return op.desired.raw();
  }
};
static_assert(sizeof(LaneMeta) == 40);

/// FlatFpMap slots entries at fp.a's low bits directly, which is only
/// sound for well-mixed values; lane ids are tiny sequential integers,
/// so memo keys run the pair through the SplitMix64 finalizer first.
/// Injective: equal b forces equal returned, and for fixed returned
/// mix64 is a bijection of (lane + 1) — distinct pairs cannot collide.
[[nodiscard]] inline detail::Fingerprint memo_key(
    std::uint32_t lane, std::uint64_t returned) noexcept {
  return detail::Fingerprint{util::mix64((std::uint64_t{lane} + 1) ^
                                         (returned * 0x9E3779B97F4A7C15ULL)),
                             returned};
}

/// Hash-consed machine states.  Lane payloads live in fixed-size chunks
/// behind atomic chunk pointers: writers append under one mutex and
/// publish the chunk with a release store; readers acquire-load the
/// pointer and then read lane slots race-free, because a lane index only
/// ever reaches another thread through a mutex, ring or barrier edge
/// that orders the slot writes before the read.  Interning is keyed on
/// (pid, encode words), so two lanes are equal iff their machines encode
/// equally — the same equality the state fingerprints use.
class LaneArena {
 public:
  LaneArena() = default;
  LaneArena(const LaneArena&) = delete;
  LaneArena& operator=(const LaneArena&) = delete;
  ~LaneArena();

  /// True once a lane could not be interned (chunk cap or an encoding
  /// longer than a LaneMeta can describe); the state that needed it is
  /// wrong, and an engine must end its run incomplete.
  [[nodiscard]] bool overflowed() const noexcept {
    return overflow_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const LaneMeta& meta(std::uint32_t lane) const {
    return meta_chunks_[lane >> kChunkBits].load(
        std::memory_order_acquire)[lane & (kChunk - 1)];
  }

  /// Interns process `pid`'s machine (a clone of `machine`).
  [[nodiscard]] std::uint32_t root_lane(const StepMachine& machine,
                                        objects::ProcessId pid);

  /// The lane `lane` reaches when its pending step returns `returned`:
  /// the shared memo, else clone() + deliver() of the lane's machine.
  [[nodiscard]] std::uint32_t resolve_deliver(std::uint32_t lane,
                                              std::uint64_t returned);

  /// The lane a crash of `lane` leaves behind (volatile locals wiped,
  /// re-entered at the recovery label).  Crash outcomes are a function
  /// of the lane alone, so one memo entry covers every crash variant.
  [[nodiscard]] std::uint32_t resolve_crash(std::uint32_t lane);

  struct Stats {
    std::uint64_t lanes = 0;      ///< distinct interned lanes
    std::uint64_t memo_hits = 0;  ///< misses of a LaneCache the memo answered
    std::uint64_t stepped = 0;    ///< resolve_deliver calls that stepped
  };
  [[nodiscard]] Stats stats();

  /// Capacity census of the arena: chunks, maps, and each interned
  /// machine's state as the encode words recorded at intern time.
  [[nodiscard]] std::uint64_t bytes();

 private:
  static constexpr std::size_t kChunkBits = 12;
  static constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 14;

  [[nodiscard]] StepMachine* machine_of(std::uint32_t lane) const;
  [[nodiscard]] bool reserve_lane();
  [[nodiscard]] std::uint32_t intern_machine(
      std::unique_ptr<StepMachine> machine, objects::ProcessId pid);

  std::mutex mu_;
  // Every table starts at FlatFpMap's minimum (16 slots) and doubles as
  // the job needs, so a small job pays for a small arena.
  detail::FlatFpMap intern_;
  detail::FlatFpMap deliver_memo_;
  detail::FlatFpMap crash_memo_;
  std::size_t size_ = 0;
  std::size_t chunks_ = 0;
  std::uint64_t machine_words_ = 0;  ///< encode words of interned lanes
  std::uint64_t memo_hits_ = 0;
  std::uint64_t stepped_ = 0;
  std::vector<std::uint64_t> enc_scratch_;

  // ff-lint: allow(R1): arena capacity flag of the checker itself,
  std::atomic<bool> overflow_{false};
  // Published lane-chunk pointers (single writer under mu_, readers
  // ordered by ring/barrier edges) — checker machinery, never part of
  // any modeled protocol history.
  // ff-lint: allow(R1): published lane-chunk pointers, checker-internal
  std::vector<std::atomic<LaneMeta*>> meta_chunks_{kMaxChunks};
  // ff-lint: allow(R1): see meta_chunks_
  std::vector<std::atomic<std::unique_ptr<StepMachine>*>> machine_chunks_{
      kMaxChunks};
};

/// One stepping thread's private caches in front of the shared arena,
/// and its tallies.
struct LaneCache {
  // Start at FlatFpMap's minimum and grow with the job, like the arena's.
  detail::FlatFpMap deliver_cache;
  detail::FlatFpMap crash_cache;
  /// Block hashes indexed by (lane, crashes, killed) — a process block
  /// is a pure function of those three.  {0,0} marks unset; a real hash
  /// equal to the sentinel merely recomputes.
  std::vector<detail::Fingerprint> block_hash_memo;
  std::uint64_t memo_hits = 0;
  std::uint64_t immunity_checks = 0;
  std::uint64_t immunity_skips = 0;

  /// The two memo tables, as the engines' peak_bytes census counts them.
  [[nodiscard]] std::uint64_t memo_bytes() const noexcept {
    return (deliver_cache.capacity() + crash_cache.capacity()) * 24;
  }
};

class LaneSpace {
 public:
  /// Steps by `root`'s step rule; `sym` selects the canonical
  /// fingerprint.
  LaneSpace(const SimWorld& root, LaneArena& arena, bool sym,
            bool killed_is_violation);

  /// Words per compact state.
  [[nodiscard]] std::size_t stride() const noexcept {
    return std::size_t{S_} + n_;
  }

  /// Writes the compact form of `world` (same configuration) into `out`.
  void state_of(const SimWorld& world, std::uint64_t* out) const;

  /// All legal choices, in SimWorld::enabled() order; tallies the A2
  /// immunity checks and skips into `cache`.
  void enabled(const std::uint64_t* state, std::vector<Choice>& out,
               LaneCache& cache) const;

  /// The successor of `state` under `choice` (one enabled() listed),
  /// written into `out`.  Throws std::out_of_range where
  /// SimWorld::apply() does: an access outside the layout.
  void apply(const std::uint64_t* state, const Choice& choice,
             std::uint64_t* out, LaneCache& cache) const;

  [[nodiscard]] detail::Fingerprint fingerprint(const std::uint64_t* state,
                                                LaneCache& cache) const;

  /// The block-structured encoding, equal to SimWorld::encode().
  void encode(const std::uint64_t* state, EncodedState& out) const;

  [[nodiscard]] bool terminal(const std::uint64_t* state) const;
  /// The step rule's verdict on a terminal state; the human-readable
  /// detail comes from replaying the witness through SimWorld.
  [[nodiscard]] TerminalVerdict verdict(const std::uint64_t* state) const;

 private:
  /// A compact state as the step rule reads it.
  struct View;

  void bump_fault(std::uint64_t* shared, objects::ObjectId obj) const;
  [[nodiscard]] std::uint32_t deliver(std::uint32_t lane,
                                      std::uint64_t returned,
                                      LaneCache& cache) const;
  [[nodiscard]] std::uint32_t crash(std::uint32_t lane,
                                    LaneCache& cache) const;
  /// hash_block of the process block a per-pid word stands for.
  [[nodiscard]] detail::Fingerprint block_hash(std::uint64_t pid_word,
                                               LaneCache& cache) const;
  /// Feeds `sink` the words of SimWorld::encode_process's block for the
  /// process a per-pid word stands for.
  template <typename Sink>
  void block_words(std::uint64_t pid_word, Sink&& sink) const;

  LaneArena* arena_;
  StepRule rule_;
  bool sym_;
  bool killed_is_violation_;
  std::uint32_t S_;
  std::uint32_t n_;
  std::uint32_t objects_;
  std::uint32_t registers_;
};

}  // namespace ff::sched
