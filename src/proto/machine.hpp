// IrMachine — drives a proto::Program inside the deterministic simulator.
//
// Satisfies the full StepMachine contract (sched/program.hpp):
//   * next_op() is pure: the pending op is computed ONCE when the machine
//     pauses and cached, so repeated calls are a load, not a re-eval;
//   * deliver() stores the returned word into the op's dst local and runs
//     the interpreter forward through local ops to the next pause/halt
//     (the run is structurally bounded — finalize() proved every cycle
//     contains a shared op);
//   * encode() emits exactly the Program's declared layout locals, and
//     finalize()'s liveness check proved that layout covers everything a
//     paused machine can still read;
//   * clone() copies the flat local array and shares the immutable
//     Program.
//
// IrMachineFactory derives objects_used(), registers_used() and
// pid_oblivious() from the Program instead of hand-maintained constants.
#pragma once

#include <array>
#include <cassert>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "proto/ir.hpp"
#include "sched/program.hpp"

namespace ff::proto {

class IrMachine final : public sched::StepMachine {
 public:
  IrMachine(std::shared_ptr<const Program> program, objects::ProcessId pid,
            std::uint64_t input)
      : program_(std::move(program)),
        vm_base_(program_->vm_code().data()),
        pid_(pid) {
    assert(!program_->uses_queue());
    const auto& locals = program_->locals();
    for (std::size_t i = 0; i < locals.size(); ++i) {
      locals_[i] = program_->eval(locals[i].init, locals_.data(), pid_, input);
    }
    run_from(program_->vm_offset(0));
  }

  [[nodiscard]] sched::PendingOp next_op() const override {
    return pending_;
  }

  void deliver(model::Value returned) override {
    assert(!halted_);
    locals_[pending_dst_] = returned.raw();
    run_from(resume_tok_);
  }

  [[nodiscard]] bool done() const override { return halted_; }
  [[nodiscard]] std::uint64_t decision() const override { return decision_; }

  void encode(std::vector<std::uint64_t>& out) const override {
    for (const std::uint16_t l : program_->layout()) out.push_back(locals_[l]);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<IrMachine>(*this);
  }

  /// The paused program counter (differential tests assert the encoding
  /// layout determines it — the dynamic half of encode() soundness).
  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }

  /// Crash–recovery (StepMachine overrides).  A crash wipes every
  /// volatile local to 0, preserves the persistent locals, drops the
  /// pending op, and re-enters the program at the recovery entry —
  /// exactly the state a freshly restarted process observes in Golab's
  /// model (shared memory and its persistent register survive, nothing
  /// else does).  finalize() proved no volatile local is live at the
  /// recovery entry, so the wipe value never influences behaviour.
  [[nodiscard]] bool can_crash() const override {
    return program_->has_recovery() && !halted_;
  }
  void crash() override {
    assert(can_crash());
    const auto& specs = program_->locals();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!specs[i].persistent) locals_[i] = 0;
    }
    pending_ = sched::PendingOp::none();
    run_from(program_->vm_offset(program_->recovery_pc()));
  }

 private:
  /// One dispatch loop over the Program's flat VM stream (see VmCode),
  /// starting at token index `tok`: expression tokens push/combine words
  /// on a fixed-size stack, op terminators consume them.  pc_ is only
  /// materialized at pauses and halts (the states the simulator can
  /// observe), from the terminator's imm; between pauses control lives
  /// in the token pointer alone, and the pause terminators record the
  /// following token in resume_tok_ so deliver() re-enters without
  /// touching the Program at all.
  void run_from(std::uint32_t tok) {
    const VmOp* const base = vm_base_;
    const VmOp* p = base + tok;
    Word stack[kMaxEvalDepth];
    Word* sp = stack;  // points one past the top
    for (;;) {
      const VmOp t = *p;
      switch (t.code) {
        case VmCode::kConst:
          *sp++ = t.imm;
          ++p;
          break;
        case VmCode::kInput:
          // finalize() confines `input` to local initializers, which run
          // through Program::eval in the constructor, never through here.
          assert(false && "`input` token in op code");
          *sp++ = 0;
          ++p;
          break;
        case VmCode::kPid:
          *sp++ = pid_;
          ++p;
          break;
        case VmCode::kLocal:
          *sp++ = locals_[t.imm];
          ++p;
          break;
        case VmCode::kAdd:
          sp[-2] = sp[-2] + sp[-1];
          --sp;
          ++p;
          break;
        case VmCode::kSub:
          sp[-2] = sp[-2] - sp[-1];
          --sp;
          ++p;
          break;
        case VmCode::kEq:
          sp[-2] = sp[-2] == sp[-1] ? 1 : 0;
          --sp;
          ++p;
          break;
        case VmCode::kNe:
          sp[-2] = sp[-2] != sp[-1] ? 1 : 0;
          --sp;
          ++p;
          break;
        case VmCode::kLt:
          sp[-2] = sp[-2] < sp[-1] ? 1 : 0;
          --sp;
          ++p;
          break;
        case VmCode::kGe:
          sp[-2] = sp[-2] >= sp[-1] ? 1 : 0;
          --sp;
          ++p;
          break;
        case VmCode::kAnd:
          sp[-2] = (sp[-2] != 0 && sp[-1] != 0) ? 1 : 0;
          --sp;
          ++p;
          break;
        case VmCode::kOr:
          sp[-2] = (sp[-2] != 0 || sp[-1] != 0) ? 1 : 0;
          --sp;
          ++p;
          break;
        case VmCode::kNot:
          sp[-1] = sp[-1] == 0 ? 1 : 0;
          ++p;
          break;
        case VmCode::kIsBottom:
          sp[-1] = sp[-1] == kBottomWord ? 1 : 0;
          ++p;
          break;
        case VmCode::kPack:
          sp[-2] =
              ((sp[-1] & 0xFFFFFFFFULL) << 32) | (sp[-2] & 0xFFFFFFFFULL);
          --sp;
          ++p;
          break;
        case VmCode::kStage:
          sp[-1] = sp[-1] >> 32;
          ++p;
          break;
        case VmCode::kValueOf:
        case VmCode::kU32:
          sp[-1] = sp[-1] & 0xFFFFFFFFULL;
          ++p;
          break;
        case VmCode::kSelect:
          sp[-3] = sp[-3] != 0 ? sp[-2] : sp[-1];
          sp -= 2;
          ++p;
          break;
        case VmCode::kAddLC:
          *sp++ = locals_[t.aux] + t.imm;
          ++p;
          break;
        case VmCode::kSubLC:
          *sp++ = locals_[t.aux] - t.imm;
          ++p;
          break;
        case VmCode::kEqLC:
          *sp++ = locals_[t.aux] == t.imm ? 1 : 0;
          ++p;
          break;
        case VmCode::kNeLC:
          *sp++ = locals_[t.aux] != t.imm ? 1 : 0;
          ++p;
          break;
        case VmCode::kLtLC:
          *sp++ = locals_[t.aux] < t.imm ? 1 : 0;
          ++p;
          break;
        case VmCode::kGeLC:
          *sp++ = locals_[t.aux] >= t.imm ? 1 : 0;
          ++p;
          break;
        case VmCode::kAddLL:
          *sp++ = locals_[t.aux] + locals_[t.imm];
          ++p;
          break;
        case VmCode::kSubLL:
          *sp++ = locals_[t.aux] - locals_[t.imm];
          ++p;
          break;
        case VmCode::kEqLL:
          *sp++ = locals_[t.aux] == locals_[t.imm] ? 1 : 0;
          ++p;
          break;
        case VmCode::kNeLL:
          *sp++ = locals_[t.aux] != locals_[t.imm] ? 1 : 0;
          ++p;
          break;
        case VmCode::kLtLL:
          *sp++ = locals_[t.aux] < locals_[t.imm] ? 1 : 0;
          ++p;
          break;
        case VmCode::kGeLL:
          *sp++ = locals_[t.aux] >= locals_[t.imm] ? 1 : 0;
          ++p;
          break;
        case VmCode::kIsBottomL:
          *sp++ = locals_[t.aux] == kBottomWord ? 1 : 0;
          ++p;
          break;
        case VmCode::kNotBottomL:
          *sp++ = locals_[t.aux] != kBottomWord ? 1 : 0;
          ++p;
          break;
        case VmCode::kStageL:
          *sp++ = locals_[t.aux] >> 32;
          ++p;
          break;
        case VmCode::kValueOfL:
          *sp++ = locals_[t.aux] & 0xFFFFFFFFULL;
          ++p;
          break;
        case VmCode::kGeSL:
          *sp++ = (locals_[t.aux] >> 32) >= locals_[t.imm] ? 1 : 0;
          ++p;
          break;
        case VmCode::kLtSC:
          *sp++ = (locals_[t.aux] >> 32) < t.imm ? 1 : 0;
          ++p;
          break;
        case VmCode::kOpSet:
          locals_[t.aux] = *--sp;
          ++p;
          break;
        case VmCode::kOpSetConst:
          locals_[t.aux] = t.imm;
          ++p;
          break;
        case VmCode::kOpSetLocal:
          locals_[t.aux] = locals_[t.imm];
          ++p;
          break;
        case VmCode::kOpBranch:
          p = *--sp != 0 ? base + t.imm : p + 1;
          break;
        case VmCode::kOpBranchEqLL:
          p = locals_[t.aux] == locals_[t.imm & 0xFFFFFFFFULL]
                  ? base + (t.imm >> 32)
                  : p + 1;
          break;
        case VmCode::kOpBranchNeLL:
          p = locals_[t.aux] != locals_[t.imm & 0xFFFFFFFFULL]
                  ? base + (t.imm >> 32)
                  : p + 1;
          break;
        case VmCode::kOpBranchLtLL:
          p = locals_[t.aux] < locals_[t.imm & 0xFFFFFFFFULL]
                  ? base + (t.imm >> 32)
                  : p + 1;
          break;
        case VmCode::kOpBranchGeLL:
          p = locals_[t.aux] >= locals_[t.imm & 0xFFFFFFFFULL]
                  ? base + (t.imm >> 32)
                  : p + 1;
          break;
        case VmCode::kOpBranchEqLC:
          p = locals_[t.aux] == (t.imm & 0xFFFFFFFFULL) ? base + (t.imm >> 32)
                                                        : p + 1;
          break;
        case VmCode::kOpBranchNeLC:
          p = locals_[t.aux] != (t.imm & 0xFFFFFFFFULL) ? base + (t.imm >> 32)
                                                        : p + 1;
          break;
        case VmCode::kOpBranchLtLC:
          p = locals_[t.aux] < (t.imm & 0xFFFFFFFFULL) ? base + (t.imm >> 32)
                                                       : p + 1;
          break;
        case VmCode::kOpBranchGeLC:
          p = locals_[t.aux] >= (t.imm & 0xFFFFFFFFULL) ? base + (t.imm >> 32)
                                                        : p + 1;
          break;
        case VmCode::kOpSetAddLC:
          locals_[t.aux >> 16] = locals_[t.aux & 0xFFFFu] + t.imm;
          ++p;
          break;
        case VmCode::kOpGoto:
          p = base + t.imm;
          break;
        case VmCode::kOpHalt:
          pc_ = static_cast<std::uint32_t>(t.imm);
          decision_ = sp[-1];
          halted_ = true;
          pending_ = sched::PendingOp::none();
          return;
        case VmCode::kOpCas:
          pc_ = static_cast<std::uint32_t>(t.imm);
          pending_dst_ = t.aux;
          resume_tok_ = static_cast<std::uint32_t>(p - base) + 1;
          assert(sp[-3] < program_->ops()[pc_].index_bound);
          pending_ = sched::PendingOp::cas(
              static_cast<objects::ObjectId>(sp[-3]),
              model::Value::of(sp[-2]), model::Value::of(sp[-1]));
          return;
        case VmCode::kOpRegRead:
          pc_ = static_cast<std::uint32_t>(t.imm);
          pending_dst_ = t.aux;
          resume_tok_ = static_cast<std::uint32_t>(p - base) + 1;
          assert(sp[-1] < program_->ops()[pc_].index_bound);
          pending_ = sched::PendingOp::reg_read(
              static_cast<objects::ObjectId>(sp[-1]));
          return;
        case VmCode::kOpRegWrite:
          pc_ = static_cast<std::uint32_t>(t.imm);
          pending_dst_ = t.aux;
          resume_tok_ = static_cast<std::uint32_t>(p - base) + 1;
          assert(sp[-2] < program_->ops()[pc_].index_bound);
          pending_ = sched::PendingOp::reg_write(
              static_cast<objects::ObjectId>(sp[-2]),
              model::Value::of(sp[-1]));
          return;
        case VmCode::kOpEnqueue:
        case VmCode::kOpDequeue:
          assert(false && "queue ops cannot run in the CAS simulator");
          return;
      }
    }
  }

  std::shared_ptr<const Program> program_;
  /// Cached program_->vm_code().data() — shared immutable storage, so
  /// the default copy in clone() stays valid.
  const VmOp* vm_base_;
  objects::ProcessId pid_;
  std::array<Word, kMaxLocals> locals_{};
  std::uint32_t pc_ = 0;
  std::uint32_t pending_dst_ = 0;  ///< dst local of the pending shared op
  std::uint32_t resume_tok_ = 0;   ///< token after the pause terminator
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

/// MachineFactory over a finalized Program.  Counts and pid-obliviousness
/// are DERIVED from the IR (no hand-maintained constants to skew).
class IrMachineFactory final : public sched::MachineFactory {
 public:
  explicit IrMachineFactory(std::shared_ptr<const Program> program)
      : program_(std::move(program)) {
    assert(program_ != nullptr);
    assert(!program_->uses_queue());
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) const override {
    return std::make_unique<IrMachine>(program_, pid, input);
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

  /// ffcheck facts for the Program, computed lazily ONCE per factory and
  /// shared by every SimWorld (defined in analysis/analysis.cpp so this
  /// header does not depend on the analyzer).
  [[nodiscard]] std::shared_ptr<const sched::ProgramFacts> facts()
      const override;

 private:
  std::shared_ptr<const Program> program_;
  mutable std::once_flag facts_once_;
  mutable std::shared_ptr<const sched::ProgramFacts> facts_cache_;
};

}  // namespace ff::proto
