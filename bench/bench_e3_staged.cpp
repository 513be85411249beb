// E3 — Theorem 6 / Figure 3: f CAS objects, ALL possibly faulty with at
// most t overriding faults each, give (f,t,f+1)-tolerant consensus.
//
// Regenerates:
//   (a) exhaustive verdicts for the small (f,t) cells at n = f+1;
//   (b) a threaded sweep over f × t with an always-faulting adversary
//       under a (f,t) budget: agreement 1.0, plus the observed highest
//       stage that actually carried information vs the conservative
//       maxStage = t·(4f+f²) bound (the paper chose correctness over
//       tightness — this table quantifies the slack);
//   (c) step-complexity per process (mean/max CAS operations).
#include <algorithm>
#include <iostream>
#include <memory>
#include <numeric>

#include "faults/budget.hpp"
#include "faults/faulty_cas.hpp"
#include "faults/policy.hpp"
#include "faults/trace.hpp"
#include "model/tolerance.hpp"
#include "proto/registry.hpp"
#include "runtime/stress.hpp"
#include "sched/explorer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace ff;

void exhaustive_table(std::uint64_t state_cap) {
  util::Table table({"f", "t", "n", "maxStage", "states", "verdict",
                     "worst-case steps"});
  const std::tuple<std::uint32_t, std::uint32_t> cells[] = {
      {1, 1}, {1, 2}, {1, 3}, {2, 1}};
  for (const auto& [f, t] : cells) {
    const std::uint32_t n = f + 1;
    sched::SimConfig config;
    config.num_objects = f;
    config.kind = model::FaultKind::kOverriding;
    config.t = t;
    std::vector<std::uint64_t> inputs(n);
    std::iota(inputs.begin(), inputs.end(), 1);
    const sched::SimWorld world(
        config,
        *proto::machine_factory("staged",
                                proto::Params{{"f", f}, {"t", t}}),
        inputs);
    sched::ExploreOptions options;
    options.max_states = state_cap;
    // The machine-checked wait-freedom bound: worst total steps across
    // every schedule, from the same search (only when it covered the
    // whole space and found no cycle).
    options.wait_free_bound = true;
    const auto result = sched::explore(world, options);
    const std::string bound = result.wait_free_bound
                                  ? std::to_string(*result.wait_free_bound)
                                  : "-";
    table.add(f, t, n, model::staged_max_stage(f, t), result.states_visited,
              result.violation
                  ? std::string(sched::to_string(result.violation->kind))
                  : std::string(result.complete ? "OK (proven)"
                                                : "OK (capped)"),
              bound);
  }
  std::cout << "Exhaustive model checking, Figure 3, all objects faulty "
               "('worst-case steps' is the proven wait-freedom bound over "
               "all schedules):\n"
            << table << '\n';
}

void threaded_table(std::uint64_t trials) {
  util::Table table({"f", "t", "n", "maxStage", "trials", "agreement",
                     "steps/proc mean", "steps/proc max", "solo bound",
                     "conv stage max"});
  for (std::uint32_t f = 1; f <= 3; ++f) {
    for (std::uint32_t t = 1; t <= 3; ++t) {
      const std::uint32_t n = f + 1;
      faults::FaultBudget budget(f, f, t);
      faults::AlwaysFault policy;
      faults::VectorTraceSink trace;
      std::vector<std::unique_ptr<faults::FaultyCas>> bank;
      std::vector<objects::CasObject*> raw;
      for (std::uint32_t i = 0; i < f; ++i) {
        bank.push_back(std::make_unique<faults::FaultyCas>(
            i, model::FaultKind::kOverriding, &policy, &budget, &trace));
        raw.push_back(bank.back().get());
      }
      const auto protocol_ptr = proto::protocol(
          "staged", proto::Params{{"f", f}, {"t", t}}, raw);
      consensus::Protocol& protocol = *protocol_ptr;
      protocol.set_step_limit(10'000'000);

      // Convergence stage of a trial: the earliest stage s such that every
      // landed write carrying stage ≥ s holds the same value.  The paper's
      // maxStage bound guarantees convergence by maxStage; this measures
      // how early it actually happens under the worst adversary we run.
      std::uint32_t worst_convergence = 0;
      runtime::StressOptions options;
      options.processes = n;
      options.budget.max_units = trials;
      options.seed = 0xE3 + f * 100 + t;
      const auto report = runtime::run_stress(
          protocol, options,
          [&](std::uint64_t) {
            budget.reset();
            trace.clear();
          },
          [&](std::uint64_t, const runtime::TrialOutcome&) {
            std::vector<std::pair<std::uint32_t, std::uint32_t>> writes;
            for (const auto& ev : trace.snapshot()) {
              if (ev.obs.after != ev.obs.before &&
                  !ev.obs.after.is_bottom()) {
                const auto sv = model::StagedValue::unpack(ev.obs.after);
                writes.emplace_back(sv.stage(), sv.value());
              }
            }
            std::sort(writes.begin(), writes.end());
            // Scan from the top: find the lowest stage above which all
            // written values agree.
            std::uint32_t convergence = 0;
            if (!writes.empty()) {
              const std::uint32_t final_value = writes.back().second;
              for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
                if (it->second != final_value) break;
                convergence = it->first;
              }
            }
            worst_convergence = std::max(worst_convergence, convergence);
          });
      const std::uint64_t max_stage = model::staged_max_stage(f, t);
      table.add(f, t, n, max_stage, report.trials, report.ok_rate(),
                report.steps_per_process.mean(),
                report.steps_per_process.max(), max_stage * f + 2,
                worst_convergence);
    }
  }
  std::cout << "Threaded stress, Figure 3, always-faulting adversary under "
               "the (f,t) budget.\nAgreement must be 1.0; 'conv stage max' "
               "(worst stage at which values converged) vs maxStage "
               "quantifies how conservative the paper's bound is:\n"
            << table << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const ff::util::Cli cli(argc, argv);
  const auto trials = cli.get_uint("trials", 100);
  const auto cap = cli.get_uint("state-cap", 6'000'000);
  std::cout << "=== E3: consensus from f all-faulty CAS objects, bounded "
               "faults (Theorem 6, Figure 3) ===\n\n";
  exhaustive_table(cap);
  threaded_table(trials);
  return 0;
}
