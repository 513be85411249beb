// Statically proved facts about a protocol program, exported by the IR
// analyzer (src/proto/analysis/) for the scheduler layer to exploit.
//
// The scheduler cannot depend on the proto IR (the dependency points the
// other way), so the analyzer distills its results into this small
// IR-free structure: the overriding-immunity mask — objects for which
// every reachable CAS was proved to use a uniform desired value and a ⊥
// expected value, so the overriding-fault branch can never manifest and
// SimWorld may soundly skip offering it (DESIGN.md §3h).
//
// A null ProgramFacts (the MachineFactory default) simply disables the
// pruning: no fault branch is skipped.
#pragma once

#include <cstdint>

namespace ff::sched {

/// Facts for one Program.  Immutable and shared (shared_ptr) by every
/// SimWorld built from the same factory.
struct ProgramFacts {
  /// Bit o set: object o is proved overriding-immune — no reachable CAS
  /// on it can ever satisfy the overriding manifest condition, so the
  /// fault branch may be skipped without changing the census.  Objects
  /// with id >= 64 are never claimed immune.
  std::uint64_t immune_objects = 0;

  [[nodiscard]] bool object_immune(std::uint32_t id) const noexcept {
    return id < 64 && ((immune_objects >> id) & 1u) != 0;
  }
};

}  // namespace ff::sched
