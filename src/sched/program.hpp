// StepMachine — an explicit-program-counter encoding of a process program
// for the deterministic simulator.
//
// A StepMachine is the simulator-side twin of a consensus::Protocol: the
// same pseudocode, but with control state reified so the world can
// (a) snapshot/clone it for depth-first search over interleavings, and
// (b) serialize it for state-graph memoization.
//
// Contract:
//   * next_op() is pure: it may be called any number of times between
//     deliveries and must return the same step.
//   * deliver(returned) advances the machine past that step, given the
//     old value the CAS returned.
//   * Once done(), next_op() returns OpType::kNone and decision() is the
//     process's output.
//   * encode() appends the full local state (PC and locals) as words;
//     two machines with equal encodings must behave identically forever.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/facts.hpp"
#include "sched/step.hpp"

namespace ff::sched {

class StepMachine {
 public:
  virtual ~StepMachine() = default;

  [[nodiscard]] virtual PendingOp next_op() const = 0;
  virtual void deliver(model::Value returned) = 0;
  [[nodiscard]] virtual bool done() const = 0;
  [[nodiscard]] virtual std::uint64_t decision() const = 0;

  virtual void encode(std::vector<std::uint64_t>& out) const = 0;
  [[nodiscard]] virtual std::unique_ptr<StepMachine> clone() const = 0;

  /// Crash–recovery support (default: not crashable).  can_crash() is
  /// true when the machine has a recovery entry and is not done;
  /// crash() wipes the machine's volatile locals (to 0), preserves its
  /// persistent locals, and re-enters the program at the recovery entry.
  /// The legacy hand-written machines keep the defaults: no recovery
  /// label means the simulator never offers them a crash branch.
  [[nodiscard]] virtual bool can_crash() const { return false; }
  virtual void crash() {}
};

/// Factory producing the machine for process `pid` with input `input`.
/// Experiments parameterize this over the protocol under test.
class MachineFactory {
 public:
  virtual ~MachineFactory() = default;
  [[nodiscard]] virtual std::unique_ptr<StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) const = 0;
  /// Number of CAS objects the produced machines address (O_0..O_{k-1}).
  [[nodiscard]] virtual std::uint32_t objects_used() const = 0;
  /// Number of read/write registers the machines address (default none).
  [[nodiscard]] virtual std::uint32_t registers_used() const { return 0; }
  /// True when the produced machines never observe their pid: make() must
  /// ignore `pid`, so a machine's behaviour and encoding are functions of
  /// its input and delivery history alone.  This is the enabling condition
  /// for process-symmetry reduction (sched/reduce.hpp): two processes
  /// with equal encoded blocks are then interchangeable forever, and the
  /// explorer may identify states up to a permutation of process ids.
  /// Defaults to false — a factory must opt in explicitly.
  [[nodiscard]] virtual bool pid_oblivious() const { return false; }
  [[nodiscard]] virtual std::string name() const = 0;
  /// Statically proved facts about the produced machines' program
  /// (sched/facts.hpp), or nullptr when no analyzer ran.  SimWorld reads
  /// this once at construction; the IR-backed factories override it with
  /// the ffcheck analysis result.
  [[nodiscard]] virtual std::shared_ptr<const ProgramFacts> facts() const {
    return nullptr;
  }
};

}  // namespace ff::sched
