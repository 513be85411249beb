#include "verify/run.hpp"

#include <chrono>
#include <deque>
#include <numeric>

#include "objects/atomic_cas.hpp"
#include "objects/register.hpp"
#include "proto/fingerprint.hpp"
#include "proto/registry.hpp"
#include "runtime/stress.hpp"
#include "sched/explorer.hpp"
#include "sched/frontier_explorer.hpp"
#include "sched/fuzzer.hpp"

namespace ff::verify {

namespace {

sched::ExploreOptions explore_options(const JobSpec& spec) {
  sched::ExploreOptions options;
  options.max_states = spec.max_states;
  options.stop_at_first_violation = spec.stop_at_first_violation;
  options.killed_is_violation = spec.killed_is_violation;
  options.symmetry_reduction = spec.symmetry_reduction;
  options.wait_free_bound = spec.wait_free_bound;
  return options;
}

void fill_census(Report& report, const sched::ExploreResult& result) {
  report.complete = result.complete;
  report.states_visited = result.states_visited;
  report.terminal_states = result.terminal_states;
  report.violations_found = result.violations_found;
  report.violations_by_kind = result.violations_by_kind;
  report.max_depth = result.max_depth;
  report.agreed_values = result.agreed_values;
  report.table_grows = result.table_grows;
  report.immunity_checks = result.immunity_checks;
  report.immunity_skips = result.immunity_skips;
  report.peak_bytes = result.peak_bytes;
  report.violation = result.violation;
  if (result.complete && !result.violation) {
    report.wait_free_bound = result.wait_free_bound;
  }
}

Report execute_explore_family(const Instance& instance) {
  const JobSpec& spec = instance.spec;
  Report report;
  if (spec.engine == Engine::kFrontier) {
    sched::FrontierExploreOptions options;
    options.explore = explore_options(spec);
    options.num_threads = spec.threads;
    const auto result = sched::frontier_explore(
        instance.config, *instance.factory, instance.inputs, options);
    fill_census(report, result.explore);
    report.frontier = result.stats;
  } else {
    fill_census(report, sched::explore(instance.world(), explore_options(spec)));
  }
  return report;
}

Report execute_fuzz(const Instance& instance) {
  const JobSpec& spec = instance.spec;
  sched::FuzzOptions options;
  options.seed = spec.seed;
  options.budget.max_units = spec.fuzz_steps;
  options.budget.max_millis = spec.fuzz_millis;
  options.max_execs = spec.fuzz_execs;
  options.killed_is_violation = spec.killed_is_violation;
  options.stop_at_first_violation = spec.stop_at_first_violation;
  options.shrink = spec.shrink;
  options.symmetry_reduction = spec.symmetry_reduction;
  const sched::FuzzResult result = sched::fuzz(instance.world(), options);

  Report report;
  report.complete = result.complete;
  // Coverage fingerprints are the fuzzer's census analogue.
  report.states_visited = result.stats.unique_states;
  report.violations_found = result.stats.violations_found;
  report.violations_by_kind = result.violations_by_kind;
  report.violation = result.violation;
  FuzzSummary summary;
  summary.executions = result.stats.executions;
  summary.total_steps = result.stats.total_steps;
  summary.corpus_entries = result.stats.corpus_entries;
  summary.unique_states = result.stats.unique_states;
  summary.first_violation_exec = result.stats.first_violation_exec;
  summary.witness_steps_found = result.stats.witness_steps_found;
  summary.witness_steps_shrunk = result.stats.witness_steps_shrunk;
  summary.rng_state = result.rng_state;
  report.fuzz = summary;
  return report;
}

Report execute_stress(const Instance& instance) {
  const JobSpec& spec = instance.spec;
  proto::Params params;
  for (const auto& [name, value] : spec.params) params.set(name, value);

  std::deque<objects::AtomicCas> objects;
  std::deque<objects::AtomicRegister> registers;
  std::vector<objects::CasObject*> object_ptrs;
  std::vector<objects::AtomicRegister*> register_ptrs;
  for (std::uint32_t i = 0; i < instance.program->num_objects(); ++i) {
    object_ptrs.push_back(&objects.emplace_back(i));
  }
  for (std::uint32_t i = 0; i < instance.program->num_registers(); ++i) {
    register_ptrs.push_back(&registers.emplace_back(i));
  }
  const auto protocol =
      proto::protocol(spec.protocol, params, object_ptrs, register_ptrs);

  runtime::StressOptions options;
  options.processes = spec.processes;
  options.budget.max_units = spec.trials;
  options.seed = spec.seed;
  const runtime::StressReport result = runtime::run_stress(*protocol, options);

  Report report;
  report.complete = true;  // the campaign ran its whole trial budget
  report.violations_found = result.violations();
  if (result.inconsistent > 0) {
    report.violations_by_kind[sched::ViolationKind::kInconsistent] =
        result.inconsistent;
  }
  if (result.invalid > 0) {
    report.violations_by_kind[sched::ViolationKind::kInvalid] = result.invalid;
  }
  StressSummary summary;
  summary.trials = result.trials;
  summary.ok = result.ok;
  summary.inconsistent = result.inconsistent;
  summary.invalid = result.invalid;
  summary.undecided = result.undecided;
  summary.first_violation = result.first_violation;
  report.stress = summary;
  return report;
}

}  // namespace

Instance instantiate(const JobSpec& spec) {
  Instance instance;
  instance.spec = spec.canonicalized();
  const JobSpec& canonical = instance.spec;

  proto::Params params;
  for (const auto& [name, value] : canonical.params) params.set(name, value);
  instance.program = proto::build_program(canonical.protocol, params);
  instance.program_fingerprint =
      proto::program_fingerprint(*instance.program);

  if (canonical.engine != Engine::kStress) {
    instance.factory =
        canonical.interpreted
            ? proto::machine_factory_interpreted(canonical.protocol, params)
            : proto::machine_factory(canonical.protocol, params);
    instance.config.num_objects = instance.factory->objects_used();
    instance.config.num_registers = instance.factory->registers_used();
    instance.config.kind = canonical.kind;
    instance.config.t = canonical.t;
    instance.config.crash_budget = canonical.crash_budget;
    instance.config.use_immunity_pruning = canonical.immunity_pruning;
  }

  instance.inputs.assign(canonical.processes, 1);
  if (!canonical.equal_inputs) {
    std::iota(instance.inputs.begin(), instance.inputs.end(),
              std::uint64_t{1});
  }
  return instance;
}

Report execute(const Instance& instance) {
  const auto start = std::chrono::steady_clock::now();
  Report report;
  switch (instance.spec.engine) {
    case Engine::kFuzz:
      report = execute_fuzz(instance);
      break;
    case Engine::kStress:
      report = execute_stress(instance);
      break;
    default:
      report = execute_explore_family(instance);
      break;
  }
  report.protocol = instance.spec.protocol;
  report.engine = instance.spec.engine;
  report.engine_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return report;
}

RunOutcome run(const JobSpec& spec, Cache* cache) {
  Instance instance = instantiate(spec);
  RunOutcome outcome;
  outcome.fingerprint = job_fingerprint(instance.spec);

  const bool use_cache = cache != nullptr && instance.spec.cacheable();
  if (use_cache) {
    if (auto entry = cache->load(outcome.fingerprint)) {
      // Cache-soundness check (DESIGN.md §3j): serve the hit only when
      // the stored program fingerprint equals the freshly resolved one,
      // so an IR edit can never resurface a stale census.
      if (entry->program_fingerprint == instance.program_fingerprint) {
        outcome.report = std::move(entry->report);
        outcome.cache_hit = true;
        return outcome;
      }
    }
  }

  outcome.report = execute(instance);
  outcome.fresh_states_expanded = outcome.report.states_visited;
  if (use_cache) {
    cache->store(outcome.fingerprint, instance.spec,
                 instance.program_fingerprint, outcome.report);
  }
  return outcome;
}

}  // namespace ff::verify
