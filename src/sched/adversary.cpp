#include "sched/adversary.hpp"

#include <cassert>
#include <sstream>

namespace ff::sched {

namespace {

// Renders a value both raw and as a ⟨value,stage⟩ pair when the raw word
// has a plausible packed form (staged-protocol machines use packing; the
// log is for humans, so show both readings).
std::string render(model::Value v) {
  if (v.is_bottom()) return v.to_string();
  const auto sv = model::StagedValue::unpack(v);
  if (v.raw() >> 32 != 0) {
    return "<" + std::to_string(sv.value()) + "," +
           std::to_string(sv.stage()) + ">";
  }
  return v.to_string();
}

std::string describe_op(objects::ProcessId pid, const PendingOp& op) {
  std::ostringstream oss;
  oss << "p" << pid << ": CAS(O" << op.object << ", " << render(op.expected)
      << ", " << render(op.desired) << ")";
  return oss.str();
}

}  // namespace

CoveringAdversaryResult run_covering_adversary(
    const MachineFactory& factory, std::uint32_t f,
    const std::vector<std::uint64_t>& inputs, std::uint64_t step_cap) {
  assert(inputs.size() == f + 2);
  assert(factory.objects_used() == f);

  SimConfig config;
  config.num_objects = f;
  config.num_registers = factory.registers_used();
  config.kind = model::FaultKind::kOverriding;
  // The adversary manages its own fault accounting (exactly one per
  // object); the world-level budget is left unbounded.
  config.t = model::kUnbounded;

  SimWorld world(config, factory, inputs);
  CoveringAdversaryResult result;
  result.faults_per_object.assign(f, 0);

  auto run_solo_to_completion = [&](objects::ProcessId pid) -> bool {
    std::uint64_t steps = 0;
    while (!world.process_done(pid)) {
      if (++steps > step_cap) return false;
      world.apply({pid, false, 0});
      ++result.total_steps;
    }
    return true;
  };

  // Phase 1: p0 runs solo until it decides.
  if (!run_solo_to_completion(0)) {
    result.log.push_back("p0 exceeded the step cap (wait-freedom suspect)");
    return result;
  }
  result.p0_decision = world.machine(0).decision();
  result.log.push_back("p0 decided " + std::to_string(*result.p0_decision));

  // Phase 2: each pi commits one overriding fault on a fresh object.
  std::set<objects::ObjectId> written_by_adversary_group;
  for (objects::ProcessId pid = 1; pid <= f; ++pid) {
    bool halted = false;
    std::uint64_t steps = 0;
    while (!world.process_done(pid)) {
      if (++steps > step_cap) break;
      const PendingOp op = world.pending(pid);
      if (op.type != OpType::kCas) {
        // Register operations execute correctly; the covering argument
        // only manipulates CAS steps.
        world.apply({pid, false, 0});
        ++result.total_steps;
        continue;
      }
      if (written_by_adversary_group.contains(op.object)) {
        world.apply({pid, false, 0});  // correct step on a known object
        ++result.total_steps;
        continue;
      }
      // First CAS on a fresh object: fault it and halt pi.  Where the
      // overriding fault would not manifest (Definition 1), the correct
      // step has its effect and costs no fault: the comparison succeeds,
      // or the object already holds the desired value.
      const model::Value before = world.object_value(op.object);
      const bool manifests = model::fault_manifests(
          model::FaultKind::kOverriding, before, {op.expected, op.desired});
      const char* what = " [overriding fault]";
      if (!manifests) {
        what = before == op.expected ? " [writes via correct success]"
                                     : " [no fault: holds the desired value]";
      }
      result.log.push_back(describe_op(pid, op) + what);
      world.apply({pid, manifests, 0});
      ++result.total_steps;
      if (manifests) ++result.faults_per_object[op.object];
      written_by_adversary_group.insert(op.object);
      result.faulted_objects.push_back(op.object);
      halted = true;
      break;
    }
    if (!halted) {
      result.claim20_held = false;
      result.log.push_back("p" + std::to_string(pid) +
                           " finished without touching a fresh object "
                           "(Claim 20 did not apply)");
    }
  }

  // Phase 3: p_{f+1} runs solo to completion.
  const objects::ProcessId last = f + 1;
  if (!run_solo_to_completion(last)) {
    result.log.push_back("p_{f+1} exceeded the step cap");
    return result;
  }
  result.last_decision = world.machine(last).decision();
  result.log.push_back("p_{f+1} decided " +
                       std::to_string(*result.last_decision));

  result.both_decided = result.p0_decision && result.last_decision;
  result.disagreement =
      result.both_decided && *result.p0_decision != *result.last_decision;
  return result;
}

}  // namespace ff::sched
