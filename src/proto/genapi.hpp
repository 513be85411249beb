// Runtime interface of the ffgen-generated machines.
//
// tools/ffgen compiles each grid parameterization of every registry
// protocol into a straight-line StepMachine (no token dispatch).  This
// header is the only hand-written seam between that generated tree
// (src/proto/generated/) and the rest of the runtime:
//
//   * GenEntry     — one generated specialization: the fingerprint of the
//                    Program it was compiled from plus its constructor.
//   * find_generated — fingerprint → entry lookup (implemented by the
//                    generated gen_table.cpp).
//   * GenMachineFactory — MachineFactory adapter selected by
//                    proto::machine_factory() when the fingerprint hits.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "objects/shared_object.hpp"
#include "proto/ir.hpp"
#include "sched/program.hpp"

namespace ff::proto::gen {

/// Constructs a fresh single-state machine (the machine_factory path).
using GenMakeFn = std::unique_ptr<sched::StepMachine> (*)(
    objects::ProcessId pid, std::uint64_t input);

struct GenEntry {
  std::uint64_t fingerprint = 0;
  GenMakeFn make = nullptr;
};

/// Fingerprint → generated entry, or nullptr when the parameterization
/// was not in the generation grid (callers fall back to IrMachine).
/// Defined by the generated src/proto/generated/gen_table.cpp.
[[nodiscard]] const GenEntry* find_generated(
    std::uint64_t fingerprint) noexcept;

/// MachineFactory whose make() constructs ffgen-generated machines.
/// Metadata (counts, pid-obliviousness, name) still comes from the
/// Program, which is also what tests fingerprint-check against.  Tests
/// detect generated selection via dynamic_cast to this type.
class GenMachineFactory final : public sched::MachineFactory {
 public:
  GenMachineFactory(std::shared_ptr<const Program> program,
                    const GenEntry* entry)
      : program_(std::move(program)), entry_(entry) {
    assert(program_ != nullptr && !program_->uses_queue());
    assert(entry_ != nullptr);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) const override {
    return entry_->make(pid, input);
  }

  [[nodiscard]] std::uint32_t objects_used() const override {
    return program_->num_objects();
  }
  [[nodiscard]] std::uint32_t registers_used() const override {
    return program_->num_registers();
  }
  [[nodiscard]] bool pid_oblivious() const override {
    return !program_->uses_pid();
  }
  [[nodiscard]] std::string name() const override { return program_->name(); }

  /// ffcheck facts for the Program the machines were generated from;
  /// lazy, once per factory (defined in analysis/analysis.cpp).  Sound
  /// for the generated machines because codegen is semantics-preserving
  /// (the census differential in tests/test_codegen.cpp pins that).
  [[nodiscard]] std::shared_ptr<const sched::ProgramFacts> facts()
      const override;

  [[nodiscard]] const std::shared_ptr<const Program>& program()
      const noexcept {
    return program_;
  }
  [[nodiscard]] const GenEntry& entry() const noexcept { return *entry_; }

 private:
  std::shared_ptr<const Program> program_;
  const GenEntry* entry_;
  mutable std::once_flag facts_once_;
  mutable std::shared_ptr<const sched::ProgramFacts> facts_cache_;
};

}  // namespace ff::proto::gen
