#include "workloads.hpp"

#include <stdexcept>

#include "proto/registry.hpp"

namespace perfbench {

using ff::model::FaultKind;
using ff::verify::Engine;
using ff::verify::JobSpec;

namespace {

// The proof instances and their censuses, checked on every DFS and
// frontier answer.
Workload proof_sym() {
  Workload w;
  w.name = "proof-sym";
  JobSpec spec;
  spec.protocol = "staged";
  spec.params = {{"f", 2}, {"t", 1}};
  spec.kind = FaultKind::kOverriding;
  spec.t = 1;
  spec.processes = 3;
  spec.symmetry_reduction = true;
  w.jobs.push_back({"staged f=2 t=1 n=3", spec,
                    Census{1'038'241, 8'028, {1, 2, 3}}});
  w.fuzz_steps = 500'000;
  w.setup_batch = 25;
  w.warm_batch = 25;
  return w;
}

Workload proof_crash() {
  Workload w;
  w.name = "proof-crash";
  JobSpec spec;
  spec.protocol = "recoverable-staged";
  spec.params = {{"f", 2}, {"t", 1}};
  spec.kind = FaultKind::kOverriding;
  spec.t = 1;
  spec.processes = 2;
  spec.crash_budget = 3;
  spec.symmetry_reduction = false;
  w.jobs.push_back({"recoverable-staged f=2 t=1 n=2 crashes=3", spec,
                    Census{801'484, 9'090, {1, 2}}});
  w.fuzz_steps = 500'000;
  w.setup_batch = 25;
  w.warm_batch = 25;
  return w;
}

// Every simulable registry protocol under every fault kind at 2 and 3
// processes, plus the recoverable protocols with one crash each.
Workload registry_sweep() {
  Workload w;
  w.name = "registry-sweep";
  const FaultKind kinds[] = {
      FaultKind::kOverriding, FaultKind::kSilent,
      FaultKind::kInvisible,  FaultKind::kArbitrary,
      FaultKind::kNonresponsive, FaultKind::kDataCorruption};
  for (const std::uint32_t crash_budget : {0u, 1u}) {
    for (const auto& info : ff::proto::ProtocolRegistry::instance().all()) {
      if (!info.simulable) continue;
      if (crash_budget > 0 && info.name.rfind("recoverable-", 0) != 0) {
        continue;
      }
      for (const FaultKind kind : kinds) {
        for (const std::uint32_t n : {2u, 3u}) {
          JobSpec spec;
          spec.protocol = info.name;
          for (const auto& param : info.params) {
            if (param.name == "n") spec.params["n"] = n;
          }
          spec.kind = kind;
          spec.processes = n;
          spec.crash_budget = crash_budget;
          w.jobs.push_back({info.name + " " +
                                std::string(ff::model::to_string(kind)) +
                                " n=" + std::to_string(n) +
                                " crashes=" + std::to_string(crash_budget),
                            spec, std::nullopt});
        }
      }
    }
  }
  w.fuzz_steps = 20'000;
  w.setup_batch = 1;
  w.warm_batch = 1;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "proof-sym") {
    w = proof_sym();
  } else if (name == "proof-crash") {
    w = proof_crash();
  } else if (name == "registry-sweep") {
    w = registry_sweep();
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.seed = seed;
  return w;
}

JobSpec engine_spec(const Workload& w, std::size_t index, Engine engine) {
  JobSpec spec = w.jobs.at(index).spec;
  spec.engine = engine;
  if (engine == Engine::kFrontier) {
    spec.threads = kFrontierThreads;
    spec.sleep_sets = false;  // the frontier engine rejects sleep sets
  } else if (engine == Engine::kFuzz) {
    spec.seed = w.seed;
    spec.fuzz_steps = w.fuzz_steps;
  }
  return spec;
}

}  // namespace perfbench
