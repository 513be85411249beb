#include "sched/sim_world.hpp"

#include <algorithm>
#include <cassert>
#include <set>

namespace ff::sched {

namespace {

/// Deterministic invisible-fault corruptor used by the simulator: the
/// returned old value is off by one, never equal to the true content.
model::Value corrupt_return(model::Value before) {
  return model::Value::of(before.raw() + 1);
}

}  // namespace

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
}

SimWorld::SimWorld(const SimWorld& other)
    : config_(other.config_),
      inputs_(other.inputs_),
      facts_(other.facts_),
      prune_(other.prune_),  // counters are shared, not duplicated
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
  if (killed_.at(pid) || machines_.at(pid)->done()) return PendingOp::none();
  return machines_.at(pid)->next_op();
}

bool SimWorld::fault_allowed(objects::ProcessId pid,
                             objects::ObjectId object) const {
  if (config_.kind == model::FaultKind::kNone) return false;
  if (!config_.object_faulty(object)) return false;
  if (config_.t != model::kUnbounded && faults_used_[object] >= config_.t) {
    return false;
  }
  if (pid != kAdversaryPid && !config_.faulting_processes.empty() &&
      !config_.faulting_processes.contains(pid)) {
    return false;
  }
  return true;
}

void SimWorld::append_fault_choices(objects::ProcessId pid,
                                    const PendingOp& op,
                                    std::vector<Choice>& out) const {
  if (!fault_allowed(pid, op.object)) return;
  const model::Value before = objects_[op.object];
  const model::CasCall call{op.expected, op.desired};
  switch (config_.kind) {
    case model::FaultKind::kOverriding:
      // Static pruning first: when the analyzer proved this object
      // overriding-immune (every reachable CAS pairs a ⊥ expected with
      // one uniform desired value), the manifest condition below is
      // unsatisfiable and the branch can be skipped without evaluating
      // it.  The debug build re-checks the certificate dynamically.
      if (config_.use_immunity_pruning && facts_ != nullptr &&
          facts_->object_immune(op.object)) {
        prune_->skips.fetch_add(1, std::memory_order_relaxed);
        assert(!(before != op.expected && before != op.desired) &&
               "A2 overriding-immunity certificate violated at runtime");
        break;
      }
      prune_->checks.fetch_add(1, std::memory_order_relaxed);
      // Manifests only when the comparison would fail AND the written
      // value actually changes the content (Definition 1: the outcome
      // must violate Φ; overwriting a value with itself does not).
      if (before != op.expected && before != op.desired) {
        out.push_back({pid, true, 0});
      }
      break;
    case model::FaultKind::kSilent:
      // Manifests only when the comparison would succeed and the write
      // would have changed the content.
      if (before == op.expected && before != op.desired) {
        out.push_back({pid, true, 0});
      }
      break;
    case model::FaultKind::kInvisible:
      out.push_back({pid, true, 0});  // corrupted output always deviates
      break;
    case model::FaultKind::kNonresponsive:
      out.push_back({pid, true, 0});  // the operation never returns
      break;
    case model::FaultKind::kArbitrary: {
      const model::CasEffect correct = model::cas_apply(before, call);
      for (std::uint32_t v = 0;
           v < config_.arbitrary_candidates.size(); ++v) {
        if (config_.arbitrary_candidates[v] != correct.after) {
          out.push_back({pid, true, v});
        }
      }
      break;
    }
    case model::FaultKind::kDataCorruption:
      // Handled via adversary corruption steps, not per-operation faults.
      break;
    case model::FaultKind::kNone:
      break;
  }
}

std::vector<Choice> SimWorld::enabled() const {
  std::vector<Choice> out;
  bool any_live = false;
  for (std::uint32_t pid = 0; pid < machines_.size(); ++pid) {
    const PendingOp op = pending(pid);
    if (op.type == OpType::kNone) continue;
    any_live = true;
    out.push_back({pid, false, 0});
    // An access outside the layout is offered as the plain step (which
    // throws in apply()) and crash-before, the two choices that do not
    // read the addressed word.
    const bool in_range =
        op.object < (op.type == OpType::kCas ? objects_.size()
                                             : registers_.size());
    // Register operations are always correct; only CAS steps may fault.
    if (op.type == OpType::kCas && in_range) {
      append_fault_choices(pid, op, out);
    }
    // Crash branches (crash_budget > 0 and a recoverable machine only).
    // Variant 0 = crash-before: the pending op never reaches the object.
    // Variant 1 = crash-after: the op's effect lands but the response is
    // lost with the crash — offered only when the effect would actually
    // change shared state (a lost response to a no-op is observationally
    // identical to crash-before, mirroring the Definition 1 manifest
    // pruning); reads never change shared state, so they only get
    // variant 0.
    if (config_.crash_budget > 0 &&
        crashes_used_[pid] < config_.crash_budget &&
        machines_[pid]->can_crash()) {
      out.push_back({pid, false, 0, true});
      if (!in_range) continue;
      if (op.type == OpType::kCas) {
        const model::CasEffect effect = model::cas_apply(
            objects_[op.object], model::CasCall{op.expected, op.desired});
        if (effect.after != objects_[op.object]) {
          out.push_back({pid, false, 1, true});
        }
      } else if (op.type == OpType::kRegWrite &&
                 registers_[op.object] != op.desired) {
        out.push_back({pid, false, 1, true});
      }
    }
  }
  if (any_live && config_.allow_corruption_steps &&
      config_.kind == model::FaultKind::kDataCorruption) {
    const auto num_candidates =
        static_cast<std::uint32_t>(config_.arbitrary_candidates.size());
    for (objects::ObjectId obj = 0; obj < config_.num_objects; ++obj) {
      if (!fault_allowed(kAdversaryPid, obj)) continue;
      for (std::uint32_t v = 0; v < num_candidates; ++v) {
        // A corruption that does not change the content is not a fault.
        if (config_.arbitrary_candidates[v] == objects_[obj]) continue;
        out.push_back({kAdversaryPid, true, obj * num_candidates + v});
      }
    }
  }
  return out;
}

void SimWorld::apply(const Choice& choice) {
  if (choice.pid == kAdversaryPid) {
    const auto num_candidates =
        static_cast<std::uint32_t>(config_.arbitrary_candidates.size());
    const objects::ObjectId obj = choice.fault_variant / num_candidates;
    const std::uint32_t v = choice.fault_variant % num_candidates;
    assert(fault_allowed(kAdversaryPid, obj));
    const model::Value displaced = objects_[obj];
    objects_[obj] = config_.arbitrary_candidates[v];
    ++faults_used_[obj];
    ++total_steps_;
    if (config_.sink != nullptr) {
      faults::CasEvent ev;
      ev.object = obj;
      ev.caller = kAdversaryPid;
      ev.fired = model::FaultKind::kDataCorruption;
      ev.manifested = true;
      ev.obs = {displaced, objects_[obj], model::Value::bottom()};
      config_.sink->on_cas(ev);
    }
    return;
  }

  StepMachine& machine = *machines_.at(choice.pid);
  assert(!killed_[choice.pid] && !machine.done());
  const PendingOp op = machine.next_op();
  ++total_steps_;

  if (choice.crash) {
    assert(config_.crash_budget > 0 &&
           crashes_used_[choice.pid] < config_.crash_budget);
    assert(machine.can_crash());
    if (choice.fault_variant == 1) {
      // Crash-after: the operation's effect reaches the object, but the
      // process crashes before observing the response.
      if (op.type == OpType::kCas) {
        const model::Value before = objects_.at(op.object);
        const model::CasEffect effect = model::cas_apply(
            before, model::CasCall{op.expected, op.desired});
        objects_[op.object] = effect.after;
        if (config_.sink != nullptr) {
          faults::CasEvent ev;
          ev.object = op.object;
          ev.caller = choice.pid;
          ev.call = {op.expected, op.desired};
          ev.obs = {before, effect.after, effect.returned};
          config_.sink->on_cas(ev);
        }
      } else if (op.type == OpType::kRegWrite) {
        registers_.at(op.object) = op.desired;
      }
    }
    ++crashes_used_[choice.pid];
    machine.crash();
    return;
  }

  if (op.type == OpType::kRegRead) {
    assert(!choice.fault);
    machine.deliver(registers_.at(op.object));
    return;
  }
  if (op.type == OpType::kRegWrite) {
    assert(!choice.fault);
    registers_.at(op.object) = op.desired;
    machine.deliver(model::Value::bottom());
    return;
  }

  assert(op.type == OpType::kCas);
  const model::Value before = objects_.at(op.object);
  const model::CasCall call{op.expected, op.desired};

  faults::CasEvent ev;
  ev.object = op.object;
  ev.caller = choice.pid;
  ev.call = call;
  ev.fired = choice.fault ? config_.kind : model::FaultKind::kNone;
  ev.manifested = choice.fault;  // fault branches only exist when they
                                 // manifest (Definition 1 pruning)

  if (!choice.fault) {
    const model::CasEffect effect = model::cas_apply(before, call);
    objects_[op.object] = effect.after;
    ev.obs = {before, effect.after, effect.returned};
    if (config_.sink != nullptr) config_.sink->on_cas(ev);
    machine.deliver(effect.returned);
    return;
  }

  assert(fault_allowed(choice.pid, op.object));
  ++faults_used_[op.object];
  switch (config_.kind) {
    case model::FaultKind::kOverriding:
      objects_[op.object] = op.desired;
      ev.obs = {before, op.desired, before};
      machine.deliver(before);
      break;
    case model::FaultKind::kSilent:
      ev.obs = {before, before, before};
      machine.deliver(before);  // content unchanged, output correct
      break;
    case model::FaultKind::kInvisible: {
      const model::CasEffect effect = model::cas_apply(before, call);
      objects_[op.object] = effect.after;
      ev.obs = {before, effect.after, corrupt_return(before)};
      machine.deliver(corrupt_return(before));
      break;
    }
    case model::FaultKind::kNonresponsive:
      killed_[choice.pid] = true;  // the operation never responds
      ev.obs = {before, before, model::Value::bottom()};
      break;
    case model::FaultKind::kArbitrary: {
      const model::Value garbage =
          config_.arbitrary_candidates.at(choice.fault_variant);
      objects_[op.object] = garbage;
      ev.obs = {before, garbage, before};
      machine.deliver(before);
      break;
    }
    case model::FaultKind::kDataCorruption:
    case model::FaultKind::kNone:
      assert(false && "not a per-operation fault kind");
      break;
  }
  if (config_.sink != nullptr) config_.sink->on_cas(ev);
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
