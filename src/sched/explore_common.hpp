// Internals shared by the sequential (explorer.cpp) and frontier
// (frontier_explorer.cpp) state-space explorers: the 128-bit state
// fingerprint and the terminal-state property check.
//
// Both explorers memoize on fingerprints rather than full encoded states.
// The soundness argument (DESIGN.md §3d): two distinct states collide
// with probability ~ |states|² / 2^128, so a completed exploration is a
// proof up to that negligible error, and — crucially — the argument is
// unchanged by the frontier's sharding, because its shards partition
// fingerprints by bits of the SAME 128-bit digest; sharding changes where
// a fingerprint is stored, never whether two distinct states are
// distinguished.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"
#include "sched/step_rule.hpp"
#include "util/rng.hpp"

namespace ff::sched::detail {

/// 128-bit fingerprint of an encoded state: two independent accumulation
/// lanes.  Collisions would require ~2^64 states; the search caps out
/// orders of magnitude earlier.
struct Fingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) noexcept =
      default;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.a ^ (fp.b * 0x9e3779b97f4a7c15ULL));
  }
};

/// Streaming fingerprint fold.  Per word each lane does one rotate-xor
/// (resp. rotate-add) and one multiply by an odd constant — a ~4-cycle
/// dependency chain versus ~15 for a full SplitMix64 round, which
/// matters because the fold is on the explorers' per-edge hot path.
/// The multiplies are bijective (odd constants) so no word is ever
/// absorbed; done() runs both lanes through a full mix64 avalanche,
/// which is what makes the low bits usable as table indices.
struct FpFold {
  std::uint64_t a = 0x243f6a8885a308d3ULL;
  std::uint64_t b = 0x13198a2e03707344ULL;
  std::uint64_t len = 0;

  void fold(std::uint64_t w) noexcept {
    a = (std::rotl(a, 5) ^ w) * 0x9e3779b97f4a7c15ULL;
    b = (std::rotl(b, 7) + w) * 0xc2b2ae3d27d4eb4fULL;
    ++len;
  }

  [[nodiscard]] Fingerprint done() const noexcept {
    return Fingerprint{util::mix64(a ^ len), util::mix64(b + len)};
  }
};

[[nodiscard]] inline Fingerprint fingerprint(
    const std::vector<std::uint64_t>& encoded) {
  FpFold f;
  for (const std::uint64_t w : encoded) f.fold(w);
  return f.done();
}

/// Flat open-addressing hash table from 128-bit fingerprints to dense
/// 32-bit ids — the sequential explorer's hot-path replacement for
/// std::unordered_set/map (one contiguous allocation, linear probing, no
/// per-node indirection).  Emptiness is tracked by the value sentinel, so
/// any fingerprint (including all-zero) is a legal key.
class FlatFpMap {
 public:
  static constexpr std::uint32_t kNoValue = 0xFFFFFFFFu;

  /// Starts at the minimum, 16 slots; every table doubles as it fills.
  FlatFpMap() : FlatFpMap(0) {}

  /// Sized for `expected` entries at < 70% load.
  explicit FlatFpMap(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 7 < expected * 10) cap <<= 1;
    slots_.assign(cap, Entry{});
    mask_ = cap - 1;
  }

  /// If `fp` is present returns its stored value; otherwise stores
  /// fp → value and returns kNoValue.  `value` must not be kNoValue.
  std::uint32_t insert_or_get(const Fingerprint& fp, std::uint32_t value) {
    if ((size_ + 1) * 10 > (mask_ + 1) * 7) grow();
    std::size_t i = static_cast<std::size_t>(fp.a) & mask_;
    // Linear probing terminates: load is kept < 70%, so an empty slot
    // exists within the table (bounded by its capacity).
    for (std::size_t step = 0; step <= mask_; ++step) {
      Entry& e = slots_[i];
      if (e.value == kNoValue) {
        e.key = fp;
        e.value = value;
        ++size_;
        return kNoValue;
      }
      if (e.key == fp) return e.value;
      i = (i + 1) & mask_;
    }
    return kNoValue;  // unreachable: table never fills
  }

  /// Hints the cache that `fp`'s home slot is about to be probed.  The
  /// table is tens of megabytes at full-grid sizes, so every probe is a
  /// DRAM miss; issuing the prefetch as soon as the fingerprint is known
  /// overlaps that miss with the caller's remaining per-edge work.
  void prefetch(const Fingerprint& fp) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[static_cast<std::size_t>(fp.a) & mask_]);
#else
    (void)fp;
#endif
  }

  /// Value stored for `fp`, or kNoValue when absent.
  [[nodiscard]] std::uint32_t find(const Fingerprint& fp) const {
    std::size_t i = static_cast<std::size_t>(fp.a) & mask_;
    for (std::size_t step = 0; step <= mask_; ++step) {
      const Entry& e = slots_[i];
      if (e.value == kNoValue) return kNoValue;
      if (e.key == fp) return e.value;
      i = (i + 1) & mask_;
    }
    return kNoValue;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Number of doublings since construction — what ExploreResult's
  /// table_grows reports.
  [[nodiscard]] std::size_t grows() const noexcept { return grows_; }

 private:
  struct Entry {
    Fingerprint key;
    std::uint32_t value = kNoValue;
  };

  void grow() {
    ++grows_;
    std::vector<Entry> old = std::move(slots_);
    const std::size_t cap = (mask_ + 1) << 1;
    slots_.assign(cap, Entry{});
    mask_ = cap - 1;
    for (const Entry& e : old) {
      if (e.value == kNoValue) continue;
      std::size_t i = static_cast<std::size_t>(e.key.a) & mask_;
      while (slots_[i].value != kNoValue) i = (i + 1) & mask_;
      slots_[i] = e;
    }
  }

  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t grows_ = 0;
};

/// Checks a terminal world; returns a violation kind if one applies, and
/// describes it in `detail`.
[[nodiscard]] inline std::optional<ViolationKind> check_terminal(
    const SimWorld& world, const ExploreOptions& options,
    std::string& detail) {
  const TerminalVerdict v = world.verdict(options.killed_is_violation);
  if (!v.kind) return std::nullopt;
  std::ostringstream oss;
  if (*v.kind == ViolationKind::kInvalid) {
    oss << "p" << v.pid << " decided " << v.value
        << " which is no process's input";
  } else if (*v.kind == ViolationKind::kInconsistent) {
    oss << "decisions disagree: " << *v.agreed << " vs " << v.value << " (p"
        << v.pid << ")";
  } else {
    oss << "a process was killed by a nonresponsive fault";
  }
  detail = oss.str();
  return v.kind;
}

}  // namespace ff::sched::detail
