// E7 — the separation the paper's introduction highlights: functional
// faults are strictly easier to tolerate than data faults.  Afek et
// al.'s lower bound rules out consensus from base objects that are ALL
// subject to data faults, while Theorem 6 builds consensus from f CAS
// objects that are ALL subject to (bounded) overriding functional faults.
//
// Same budget, two fault models:
//   (a) exhaustive: staged protocol, f objects all faulty, budget (f,t) —
//       overriding functional faults → proven correct; data-corruption
//       faults (adversary may rewrite a register at any point) →
//       violation exhibited;
//   (b) threaded: the same protocol against an asynchronous corruption
//       gremlin thread vs against overriding injection.
#include <iostream>
#include <memory>
#include <numeric>

#include "faults/budget.hpp"
#include "faults/data_fault.hpp"
#include "faults/faulty_cas.hpp"
#include "faults/policy.hpp"
#include "proto/registry.hpp"
#include "runtime/stress.hpp"
#include "sched/explorer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace ff;

void exhaustive_table() {
  util::Table table({"fault model", "f", "t", "n", "states", "verdict"});
  const std::pair<std::uint32_t, std::uint32_t> cells[] = {{1, 1}, {1, 2}};
  for (const auto& [f, t] : cells) {
    const std::uint32_t n = f + 1;
    std::vector<std::uint64_t> inputs(n);
    std::iota(inputs.begin(), inputs.end(), 1);
    for (const bool data_faults : {false, true}) {
      sched::SimConfig config;
      config.num_objects = f;
      config.t = t;
      config.kind = data_faults ? model::FaultKind::kDataCorruption
                                : model::FaultKind::kOverriding;
      const sched::SimWorld world(
          config,
          *proto::machine_factory("staged",
                                  proto::Params{{"f", f}, {"t", t}}),
          inputs);
      const auto result = sched::explore(world);
      table.add(data_faults ? "data corruption (Afek et al.)"
                            : "overriding (functional)",
                f, t, n, result.states_visited,
                result.violation
                    ? std::string(sched::to_string(result.violation->kind))
                    : std::string(result.complete ? "OK (proven)"
                                                  : "OK (capped)"));
    }
  }
  std::cout << "Exhaustive: staged protocol, ALL f objects faulty, same "
               "(f,t) budget, two fault models:\n"
            << table << '\n';
}

void threaded_table(std::uint64_t trials) {
  util::Table table({"fault model", "f", "t", "n", "trials", "agreement"});
  constexpr std::uint32_t kF = 2;
  constexpr std::uint32_t kT = 1;
  constexpr std::uint32_t kN = kF + 1;

  // (i) overriding functional faults, always-fault adversary.
  {
    faults::FaultBudget budget(kF, kF, kT);
    faults::AlwaysFault policy;
    std::vector<std::unique_ptr<faults::FaultyCas>> bank;
    std::vector<objects::CasObject*> raw;
    for (std::uint32_t i = 0; i < kF; ++i) {
      bank.push_back(std::make_unique<faults::FaultyCas>(
          i, model::FaultKind::kOverriding, &policy, &budget));
      raw.push_back(bank.back().get());
    }
    const auto protocol_ptr = proto::protocol(
        "staged", proto::Params{{"f", kF}, {"t", kT}}, raw);
    consensus::Protocol& protocol = *protocol_ptr;
    protocol.set_step_limit(10'000'000);
    runtime::StressOptions options;
    options.processes = kN;
    options.budget.max_units = trials;
    options.seed = 0xE7;
    const auto report = runtime::run_stress(
        protocol, options, [&](std::uint64_t) { budget.reset(); });
    table.add("overriding (functional)", kF, kT, kN, report.trials,
              report.ok_rate());
  }

  // (ii) asynchronous data corruption by a gremlin thread, same t per
  // object.  The gremlin writes arbitrary garbage at arbitrary moments.
  {
    std::vector<std::unique_ptr<faults::FaultyCas>> bank;
    std::vector<objects::CasObject*> raw;
    std::vector<faults::FaultyCas*> targets;
    for (std::uint32_t i = 0; i < kF; ++i) {
      bank.push_back(std::make_unique<faults::FaultyCas>(
          i, model::FaultKind::kNone, nullptr, nullptr));
      raw.push_back(bank.back().get());
      targets.push_back(bank.back().get());
    }
    const auto protocol_ptr = proto::protocol(
        "staged", proto::Params{{"f", kF}, {"t", kT}}, raw);
    consensus::Protocol& protocol = *protocol_ptr;
    protocol.set_step_limit(10'000'000);

    std::uint64_t ok = 0;
    std::uint64_t total = 0;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      protocol.reset();
      faults::CorruptionGremlin::Options gremlin_options;
      gremlin_options.corruptions_per_object = kT;
      gremlin_options.seed = 0xE7 + trial;
      faults::CorruptionGremlin gremlin(targets, gremlin_options);
      gremlin.start();
      const auto inputs = runtime::make_inputs(kN, trial, 0xE7);
      const auto outcome = runtime::run_trial(protocol, inputs, trial + 1);
      gremlin.stop();
      ++total;
      if (outcome.verdict.ok()) ++ok;
    }
    table.add("data corruption (gremlin)", kF, kT, kN, total,
              static_cast<double>(ok) / static_cast<double>(total));
  }

  std::cout << "Threaded: same budget, functional vs data faults "
               "(functional row must be 1.0; the gremlin row degrades —\n"
               "timing-dependent, its corruptions must land in the "
               "vulnerable window to split the decision):\n"
            << table << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const ff::util::Cli cli(argc, argv);
  const auto trials = cli.get_uint("trials", 200);
  std::cout << "=== E7: functional faults beat the data-fault lower bound "
               "(Section 4 intro) ===\n\n";
  exhaustive_table();
  threaded_table(trials);
  return 0;
}
