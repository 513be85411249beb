// StepRule — the one definition of what a simulated step may do.
//
// SimWorld (full worlds: fuzz, witness replay) and LaneSpace (compact
// states: dfs, frontier) differ only in how they lay a state out.  The
// rule itself is written once, here, over a small state accessor each
// of them provides:
//
//   processes()            number of processes
//   pending(pid)           next op; kNone when halted or killed
//   crashes(pid)           crashes so far
//   can_crash(pid)         the machine has a recovery entry
//   killed(pid)            a nonresponsive fault stopped it
//   decision(pid)          its decision once halted, else nullopt
//   object(obj), reg(r)    word values
//   faults(obj)            faults charged to obj (SimWorld counts them
//                          all, LaneSpace caps them at t; the gate only
//                          asks whether t is reached)
//
// enabled() lists the legal choices in the order every engine and the
// pinned Reports depend on: per pid the plain step, its fault variants,
// crash-before and crash-after, then the adversary's corruptions,
// object-major.  Fault branching follows Definition 1: a variant is
// offered only when its Φ′ outcome violates Φ (model::fault_manifests),
// so an overriding fault on a CAS whose comparison succeeds anyway is
// no branch.  outcome() says what a choice does; judge() says whether a
// terminal state violates Validity, Agreement or (when asked) the
// nonresponsive stall rule.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/cas_semantics.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

/// What a choice does to the state: the word it writes, what the
/// stepping process receives, and the CAS event a trace sink records.
struct StepOutcome {
  enum class Target : std::uint8_t { kNone, kObject, kRegister };
  /// Where `written` goes.  kObject exactly for a CAS (crash-after's
  /// included) and a corruption, the steps a trace sink records as
  /// `call`, `obs` and `fired` (kNone for a correct step).
  Target target = Target::kNone;
  objects::ObjectId index = 0;  ///< the addressed object or register
  model::Value written;
  model::Value returned;  ///< delivered unless `crash` or `kill`
  bool crash = false;     ///< the process crashes instead of receiving
  bool kill = false;      ///< the operation never responds
  bool charge = false;    ///< one fault is charged to object `index`
  model::FaultKind fired = model::FaultKind::kNone;
  model::CasCall call;
  model::CasObservation obs;
};

/// Verdict of a terminal state.  Processes are judged in pid order, and
/// Validity is checked before Agreement for each; the stall rule applies
/// only when every decision passed.
struct TerminalVerdict {
  std::optional<ViolationKind> kind;
  /// The first decision in pid order.  Without a violation, the value
  /// every deciding process agreed on.
  std::optional<std::uint64_t> agreed;
  objects::ProcessId pid = 0;  ///< the process whose decision violates
  std::uint64_t value = 0;     ///< its decision
};

class StepRule {
 public:
  /// `config` with SimWorld's defaults applied; `facts` may be null.
  StepRule(const SimConfig& config, const ProgramFacts* facts,
           const std::vector<std::uint64_t>& inputs)
      : cfg_(config), inputs_(inputs) {
    cfg_.sink = nullptr;
    if (cfg_.use_immunity_pruning && facts != nullptr) immune_ = *facts;
    std::sort(inputs_.begin(), inputs_.end());
    inputs_.erase(std::unique(inputs_.begin(), inputs_.end()), inputs_.end());
  }

  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }

  /// Appends every legal choice at `v` to `out`, and tallies the A2
  /// overriding conditions evaluated (`checks`) and skipped on a
  /// proved-immune object (`skips`).
  template <typename View>
  void enabled(const View& v, std::vector<Choice>& out,
               std::uint64_t& checks, std::uint64_t& skips) const {
    bool any_live = false;
    for (objects::ProcessId pid = 0; pid < v.processes(); ++pid) {
      const PendingOp op = v.pending(pid);
      if (op.type == OpType::kNone) continue;
      any_live = true;
      out.push_back({pid, false, 0});
      // An access outside the layout is offered as the plain step (which
      // throws in outcome()) and crash-before, the two choices that do
      // not read the addressed word.
      const bool in_range = in_layout(op);
      // Register operations are always correct; only CAS steps may fault.
      if (op.type == OpType::kCas && in_range &&
          fault_allowed(v, pid, op.object)) {
        append_fault_variants(v, pid, op, out, checks, skips);
      }
      if (cfg_.crash_budget > 0 && v.crashes(pid) < cfg_.crash_budget &&
          v.can_crash(pid)) {
        out.push_back({pid, false, 0, true});
        // Crash-after lands the effect and loses the response; offered
        // only when the effect changes state, since a lost response to a
        // no-op is crash-before.  Reads never change state.
        if (in_range && effect_changes_state(v, op)) {
          out.push_back({pid, false, 1, true});
        }
      }
    }
    if (any_live && cfg_.kind == model::FaultKind::kDataCorruption) {
      const auto num_candidates =
          static_cast<std::uint32_t>(cfg_.arbitrary_candidates.size());
      for (objects::ObjectId obj = 0; obj < cfg_.num_objects; ++obj) {
        if (!fault_allowed(v, kAdversaryPid, obj)) continue;
        for (std::uint32_t c = 0; c < num_candidates; ++c) {
          if (model::corruption_manifests(v.object(obj),
                                          cfg_.arbitrary_candidates[c])) {
            out.push_back({kAdversaryPid, true, obj * num_candidates + c});
          }
        }
      }
    }
  }

  /// What `choice` (one enabled() listed) does at `v`.  Throws
  /// std::out_of_range when it reads or writes a word outside the layout.
  template <typename View>
  [[nodiscard]] StepOutcome outcome(const View& v,
                                    const Choice& choice) const {
    StepOutcome o;
    if (choice.pid == kAdversaryPid) {
      const auto num_candidates =
          static_cast<std::uint32_t>(cfg_.arbitrary_candidates.size());
      o.index = choice.fault_variant / num_candidates;
      assert(fault_allowed(v, kAdversaryPid, o.index));
      o.target = StepOutcome::Target::kObject;
      o.written = cfg_.arbitrary_candidates[choice.fault_variant %
                                            num_candidates];
      o.charge = true;
      o.fired = model::FaultKind::kDataCorruption;
      o.obs = {v.object(o.index), o.written, model::Value::bottom()};
      return o;
    }

    const PendingOp op = v.pending(choice.pid);
    assert(op.type != OpType::kNone);
    if (choice.crash) {
      assert(cfg_.crash_budget > 0 &&
             v.crashes(choice.pid) < cfg_.crash_budget);
      assert(v.can_crash(choice.pid));
      o.crash = true;
      if (choice.fault_variant == 0 || op.type == OpType::kRegRead) return o;
    }
    if (!in_layout(op)) throw_outside_layout(op);
    o.index = op.object;
    if (op.type == OpType::kRegRead) {
      assert(!choice.fault);
      o.returned = v.reg(op.object);
      return o;
    }
    if (op.type == OpType::kRegWrite) {
      assert(!choice.fault);
      o.target = StepOutcome::Target::kRegister;
      o.written = op.desired;
      o.returned = model::Value::bottom();
      return o;
    }

    assert(op.type == OpType::kCas);
    const model::Value before = v.object(op.object);
    o.target = StepOutcome::Target::kObject;
    o.call = {op.expected, op.desired};
    if (choice.fault) {
      assert(fault_allowed(v, choice.pid, op.object));
      o.charge = true;
      o.fired = cfg_.kind;
      const std::optional<model::CasObservation> obs = model::fault_outcome(
          cfg_.kind, before, o.call, candidate(choice.fault_variant));
      o.kill = !obs;
      o.obs = obs.value_or(
          model::CasObservation{before, before, model::Value::bottom()});
    } else {
      const model::CasEffect effect = model::cas_apply(before, o.call);
      o.obs = {before, effect.after, effect.returned};
    }
    o.written = o.obs.after;
    o.returned = o.obs.returned;
    return o;
  }

  /// The verdict of terminal state `v`.
  template <typename View>
  [[nodiscard]] TerminalVerdict judge(const View& v,
                                      bool killed_is_violation) const {
    TerminalVerdict out;
    bool any_killed = false;
    for (objects::ProcessId pid = 0; pid < v.processes(); ++pid) {
      if (v.killed(pid)) {
        any_killed = true;
        continue;
      }
      const std::optional<std::uint64_t> decision = v.decision(pid);
      if (!decision) continue;
      out.pid = pid;
      out.value = *decision;
      if (!std::binary_search(inputs_.begin(), inputs_.end(), *decision)) {
        out.kind = ViolationKind::kInvalid;
        return out;
      }
      if (out.agreed && *out.agreed != *decision) {
        out.kind = ViolationKind::kInconsistent;
        return out;
      }
      if (!out.agreed) out.agreed = decision;
    }
    if (killed_is_violation && any_killed) {
      out.kind = ViolationKind::kStalled;
    }
    return out;
  }

 private:
  /// Count of the words `op` addresses: CAS objects or registers.
  [[nodiscard]] std::uint32_t layout_size(const PendingOp& op) const noexcept {
    return op.type == OpType::kCas ? cfg_.num_objects : cfg_.num_registers;
  }
  [[nodiscard]] bool in_layout(const PendingOp& op) const noexcept {
    return op.object < layout_size(op);
  }
  /// The std::out_of_range a step addressing a word outside the layout
  /// throws (a corrupted value used as an index).
  [[noreturn]] void throw_outside_layout(const PendingOp& op) const {
    throw std::out_of_range(
        std::string(op.type == OpType::kCas ? "CAS object " : "register ") +
        std::to_string(op.object) + " is outside the layout (" +
        std::to_string(layout_size(op)) + ")");
  }

  /// The value arbitrary fault variant `variant` writes.
  [[nodiscard]] model::Value candidate(std::uint32_t variant) const {
    return cfg_.kind == model::FaultKind::kArbitrary
               ? cfg_.arbitrary_candidates.at(variant)
               : model::Value::bottom();
  }

  /// The budget, faulty-object and faulting-process gate.
  template <typename View>
  [[nodiscard]] bool fault_allowed(const View& v, objects::ProcessId pid,
                                   objects::ObjectId obj) const {
    if (cfg_.kind == model::FaultKind::kNone || !cfg_.object_faulty(obj)) {
      return false;
    }
    if (cfg_.t != model::kUnbounded && v.faults(obj) >= cfg_.t) return false;
    return pid == kAdversaryPid || cfg_.faulting_processes.empty() ||
           cfg_.faulting_processes.contains(pid);
  }

  template <typename View>
  void append_fault_variants(const View& v, objects::ProcessId pid,
                             const PendingOp& op, std::vector<Choice>& out,
                             std::uint64_t& checks,
                             std::uint64_t& skips) const {
    const model::Value before = v.object(op.object);
    const model::CasCall call{op.expected, op.desired};
    if (cfg_.kind == model::FaultKind::kOverriding) {
      // Static pruning first: on an object the analyzer proved
      // overriding-immune (DESIGN.md §3h) the fault cannot manifest, so
      // the branch is skipped unevaluated.  Builds with assertions (the
      // ASan tree) re-check the certificate.
      if (immune_.object_immune(op.object)) {
        ++skips;
        assert(!model::fault_manifests(cfg_.kind, before, call) &&
               "A2 overriding-immunity certificate violated at runtime");
        return;
      }
      ++checks;
    }
    const auto variants =
        cfg_.kind == model::FaultKind::kArbitrary
            ? static_cast<std::uint32_t>(cfg_.arbitrary_candidates.size())
            : 1u;
    for (std::uint32_t variant = 0; variant < variants; ++variant) {
      if (model::fault_manifests(cfg_.kind, before, call,
                                 candidate(variant))) {
        out.push_back({pid, true, variant});
      }
    }
  }

  template <typename View>
  [[nodiscard]] bool effect_changes_state(const View& v,
                                          const PendingOp& op) const {
    if (op.type == OpType::kCas) {
      const model::Value before = v.object(op.object);
      return model::cas_apply(before, {op.expected, op.desired}).after !=
             before;
    }
    return op.type == OpType::kRegWrite && v.reg(op.object) != op.desired;
  }

  SimConfig cfg_;
  ProgramFacts immune_;  ///< empty unless immunity pruning applies
  std::vector<std::uint64_t> inputs_;  ///< distinct, sorted
};

}  // namespace ff::sched
