#include "sched/sim_world.hpp"

#include <algorithm>
#include <set>

#include "sched/step_rule.hpp"

namespace ff::sched {

struct SimWorld::View {
  const SimWorld& w;

  [[nodiscard]] std::uint32_t processes() const { return w.processes(); }
  [[nodiscard]] PendingOp pending(objects::ProcessId pid) const {
    return w.pending(pid);
  }
  [[nodiscard]] std::uint32_t crashes(objects::ProcessId pid) const {
    return w.crashes_used_[pid];
  }
  [[nodiscard]] bool can_crash(objects::ProcessId pid) const {
    return w.machines_[pid]->can_crash();
  }
  [[nodiscard]] bool killed(objects::ProcessId pid) const {
    return w.killed_[pid];
  }
  [[nodiscard]] std::optional<std::uint64_t> decision(
      objects::ProcessId pid) const {
    if (!w.machines_[pid]->done()) return std::nullopt;
    return w.machines_[pid]->decision();
  }
  [[nodiscard]] model::Value object(objects::ObjectId id) const {
    return w.objects_[id];
  }
  [[nodiscard]] std::uint32_t faults(objects::ObjectId id) const {
    return w.faults_used_[id];
  }
  [[nodiscard]] model::Value reg(objects::ObjectId id) const {
    return w.registers_[id];
  }
};

SimWorld::SimWorld(SimConfig config, const MachineFactory& factory,
                   std::vector<std::uint64_t> inputs)
    : config_(std::move(config)),
      inputs_(std::move(inputs)),
      facts_(factory.facts()),
      prune_(std::make_shared<PruneCounters>()),
      objects_(config_.num_objects, model::Value::bottom()),
      registers_(config_.num_registers, model::Value::bottom()),
      faults_used_(config_.num_objects, 0),
      crashes_used_(inputs_.size(), 0),
      killed_(inputs_.size(), false),
      symmetric_machines_(factory.pid_oblivious()) {
  machines_.reserve(inputs_.size());
  for (std::uint32_t pid = 0; pid < inputs_.size(); ++pid) {
    machines_.push_back(factory.make(pid, inputs_[pid]));
  }
  if (config_.arbitrary_candidates.empty()) {
    config_.arbitrary_candidates.push_back(model::Value::bottom());
    std::set<std::uint64_t> seen;
    for (const std::uint64_t in : inputs_) {
      if (seen.insert(in).second) {
        config_.arbitrary_candidates.push_back(model::Value::of(in));
      }
    }
  }
  rule_ = std::make_shared<const StepRule>(config_, facts_.get(), inputs_);
}

SimWorld::SimWorld(const SimWorld& other)
    : config_(other.config_),
      inputs_(other.inputs_),
      facts_(other.facts_),
      prune_(other.prune_),  // counters are shared, not duplicated
      rule_(other.rule_),
      objects_(other.objects_),
      registers_(other.registers_),
      faults_used_(other.faults_used_),
      crashes_used_(other.crashes_used_),
      killed_(other.killed_),
      total_steps_(other.total_steps_),
      symmetric_machines_(other.symmetric_machines_) {
  machines_.reserve(other.machines_.size());
  for (const auto& m : other.machines_) machines_.push_back(m->clone());
}

SimWorld& SimWorld::operator=(const SimWorld& other) {
  if (this == &other) return *this;
  SimWorld copy(other);
  *this = std::move(copy);
  return *this;
}

PendingOp SimWorld::pending(objects::ProcessId pid) const {
  const StepMachine& m = *machines_.at(pid);
  return killed_[pid] || m.done() ? PendingOp::none() : m.next_op();
}

std::vector<Choice> SimWorld::enabled() const {
  std::vector<Choice> out;
  std::uint64_t checks = 0;
  std::uint64_t skips = 0;
  rule_->enabled(View{*this}, out, checks, skips);
  if (checks != 0) prune_->checks.fetch_add(checks, std::memory_order_relaxed);
  if (skips != 0) prune_->skips.fetch_add(skips, std::memory_order_relaxed);
  return out;
}

void SimWorld::apply(const Choice& choice) {
  const StepOutcome o = rule_->outcome(View{*this}, choice);
  ++total_steps_;
  if (o.target == StepOutcome::Target::kObject) {
    objects_[o.index] = o.written;
  } else if (o.target == StepOutcome::Target::kRegister) {
    registers_[o.index] = o.written;
  }
  if (o.charge) ++faults_used_[o.index];
  if (o.target == StepOutcome::Target::kObject && config_.sink != nullptr) {
    faults::CasEvent ev;
    ev.object = o.index;
    ev.caller = choice.pid;
    ev.call = o.call;
    ev.obs = o.obs;
    ev.fired = o.fired;
    // Fault branches only exist when they manifest (Definition 1).
    ev.manifested = o.fired != model::FaultKind::kNone;
    config_.sink->on_cas(ev);
  }
  if (choice.pid == kAdversaryPid) return;
  StepMachine& machine = *machines_[choice.pid];
  if (o.crash) {
    ++crashes_used_[choice.pid];
    machine.crash();
  } else if (o.kill) {
    killed_[choice.pid] = true;
  } else {
    machine.deliver(o.returned);
  }
}

void SimWorld::apply_with_undo(const Choice& choice, StepUndo& undo) {
  undo.pid = choice.pid;
  undo.objects = objects_;
  undo.registers = registers_;
  undo.faults_used = faults_used_;
  undo.crashes_used = crashes_used_;
  undo.killed = killed_;
  undo.total_steps = total_steps_;
  if (choice.pid != kAdversaryPid) {
    undo.machine = machines_[choice.pid]->clone();
  } else {
    undo.machine.reset();
  }
  apply(choice);
}

void SimWorld::undo_step(StepUndo& undo) {
  // Swap, not copy: the undo buffers keep the (now dead) post-step
  // values and their capacity for the next save.
  objects_.swap(undo.objects);
  registers_.swap(undo.registers);
  faults_used_.swap(undo.faults_used);
  crashes_used_.swap(undo.crashes_used);
  killed_.swap(undo.killed);
  total_steps_ = undo.total_steps;
  if (undo.machine != nullptr) {
    machines_[undo.pid] = std::move(undo.machine);
  }
}

bool SimWorld::terminal() const {
  for (std::uint32_t pid = 0; pid < machines_.size(); ++pid) {
    if (!killed_[pid] && !machines_[pid]->done()) return false;
  }
  return true;
}

bool SimWorld::any_killed() const {
  for (const bool k : killed_) {
    if (k) return true;
  }
  return false;
}

TerminalVerdict SimWorld::verdict(bool killed_is_violation) const {
  return rule_->judge(View{*this}, killed_is_violation);
}

std::vector<std::optional<std::uint64_t>> SimWorld::decisions() const {
  std::vector<std::optional<std::uint64_t>> out;
  out.reserve(machines_.size());
  for (std::uint32_t pid = 0; pid < machines_.size(); ++pid) {
    if (!killed_[pid] && machines_[pid]->done()) {
      out.emplace_back(machines_[pid]->decision());
    } else {
      out.emplace_back(std::nullopt);
    }
  }
  return out;
}

void SimWorld::encode_shared(std::vector<std::uint64_t>& out) const {
  for (const model::Value v : objects_) out.push_back(v.raw());
  for (const model::Value v : registers_) out.push_back(v.raw());
  // Only the remaining headroom min(used, t) is semantically relevant;
  // with t = ∞ the counters never matter.  Encoding the raw counts would
  // make livelocking executions look like fresh states forever and defeat
  // both memoization and cycle detection.
  for (const std::uint32_t used : faults_used_) {
    out.push_back(config_.t == model::kUnbounded
                      ? 0
                      : std::min(used, config_.t));
  }
}

void SimWorld::encode_process(objects::ProcessId pid,
                              std::vector<std::uint64_t>& out) const {
  out.push_back(0xFEEDFACEFEEDFACEULL);  // separator guards alignment
  out.push_back(killed_.at(pid) ? 1 : 0);
  // The crash counter is per-process state (it gates this process's
  // remaining crash branches), so it lives in the process block — and
  // only when crashes are enabled at all, so budget-0 encodings are
  // bit-identical to the crash-free ones.  The counter is monotone and
  // encoded, so a crash edge can never close a cycle: recovery loops are
  // budgeted by construction.
  if (config_.crash_budget > 0) out.push_back(crashes_used_.at(pid));
  machines_.at(pid)->encode(out);
}

std::vector<std::uint64_t> SimWorld::encode() const {
  std::vector<std::uint64_t> out;
  out.reserve(shared_words() + machines_.size() * 8);
  encode_shared(out);
  for (std::uint32_t pid = 0; pid < machines_.size(); ++pid) {
    encode_process(pid, out);
  }
  return out;
}

}  // namespace ff::sched
