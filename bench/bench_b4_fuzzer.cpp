// B4 — schedule-fuzzer throughput and time-to-first-violation.
//
// Three questions feed the BENCH trajectory:
//   * How many schedules (and simulated steps) per second does the
//     coverage-guided fuzzer execute on configurations with nothing to
//     find?  That is the raw search horsepower.
//   * Does that rate hold while the corpus fills?  The small correct
//     configurations cover a few hundred states at most, so a step cost
//     that grows with the corpus only shows on a large instance: the
//     benchmark's proof-sym job, measured over its whole budget and over
//     the second half of it.
//   * How quickly does it surface a first witness on configurations the
//     explorers prove faulty?  Wall time per benchmark iteration IS the
//     time-to-first-violation; the counters record how many executions
//     and steps that took.
//
// Every configuration is a verify::JobSpec (engine = fuzz) executed
// through verify::instantiate()/execute() — the bench never fills
// FuzzOptions by hand.
//
// Modes:
//   (default)        google-benchmark suite (all BM_* below)
//   --json <path>    write a machine-readable BENCH_B4.json report:
//                    schedules/sec and steps/sec on proven-correct
//                    configurations, the corpus-fill rates on proof-sym,
//                    plus time-to-first-violation and
//                    executions-to-violation on proven-faulty ones.
//   --smoke          reduced budgets for CI gating (scripts/check.sh).
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "util/json.hpp"
#include "verify/run.hpp"

namespace {

using namespace ff;

verify::JobSpec fuzz_spec(std::string protocol,
                          std::map<std::string, std::uint64_t> params,
                          model::FaultKind kind, std::uint32_t t,
                          std::uint32_t n, std::uint64_t budget) {
  verify::JobSpec spec;
  spec.protocol = std::move(protocol);
  spec.params = std::move(params);
  spec.kind = kind;
  spec.t = t;
  spec.processes = n;
  spec.engine = verify::Engine::kFuzz;
  spec.fuzz_steps = budget;
  return spec;
}

// --- Throughput: schedules/sec and steps/sec on a correct config ----------

void run_throughput(benchmark::State& state, verify::JobSpec spec) {
  std::uint64_t execs = 0;
  std::uint64_t steps = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    spec.seed = seed++;
    const verify::Report report = verify::execute(verify::instantiate(spec));
    execs += report.fuzz->executions;
    steps += report.fuzz->total_steps;
    benchmark::DoNotOptimize(report);
  }
  state.counters["schedules/s"] = benchmark::Counter(
      static_cast<double>(execs), benchmark::Counter::kIsRate);
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}

void BM_FuzzThroughputRetrySilent(benchmark::State& state) {
  // retry-silent at bounded t is explorer-proven correct: pure search.
  run_throughput(state, fuzz_spec("retry-silent", {},
                                  model::FaultKind::kSilent, 1, 2, 50'000));
}
BENCHMARK(BM_FuzzThroughputRetrySilent)->Unit(benchmark::kMillisecond);

void BM_FuzzThroughputStagedSafe(benchmark::State& state) {
  // staged f=1 t=1 n=2 is within the protocol's fault budget: correct.
  run_throughput(state,
                 fuzz_spec("staged", {{"f", 1}, {"t", 1}},
                           model::FaultKind::kOverriding, 1, 2, 50'000));
}
BENCHMARK(BM_FuzzThroughputStagedSafe)->Unit(benchmark::kMillisecond);

// --- Time-to-first-violation ----------------------------------------------

void run_first_violation(benchmark::State& state, verify::JobSpec spec) {
  std::uint64_t execs = 0;
  std::uint64_t steps = 0;
  std::uint64_t found = 0;
  std::uint64_t witness = 0;
  std::uint64_t shrunk = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    spec.seed = seed++;
    const verify::Report report = verify::execute(verify::instantiate(spec));
    execs += report.fuzz->executions;
    steps += report.fuzz->total_steps;
    if (report.violation) {
      ++found;
      witness += report.fuzz->witness_steps_found;
      shrunk += report.fuzz->witness_steps_shrunk;
    }
    benchmark::DoNotOptimize(report);
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["found"] = static_cast<double>(found) / iters;
  state.counters["execs_to_violation"] = static_cast<double>(execs) / iters;
  state.counters["steps_to_violation"] = static_cast<double>(steps) / iters;
  state.counters["witness_steps"] = static_cast<double>(witness) / iters;
  state.counters["witness_steps_shrunk"] =
      static_cast<double>(shrunk) / iters;
}

void BM_FuzzFirstViolationSingleCas(benchmark::State& state) {
  // Figure 1: one overriding fault breaks single-CAS consensus at n=3.
  run_first_violation(
      state, fuzz_spec("single-cas", {}, model::FaultKind::kOverriding, 1, 3,
                       5'000'000));  // effectively until found
}
BENCHMARK(BM_FuzzFirstViolationSingleCas)->Unit(benchmark::kMicrosecond);

void BM_FuzzFirstViolationStaged(benchmark::State& state) {
  // staged f=1 t=1 at n=3 exceeds the protected-process count: faulty.
  run_first_violation(
      state, fuzz_spec("staged", {{"f", 1}, {"t", 1}},
                       model::FaultKind::kOverriding, 1, 3, 5'000'000));
}
BENCHMARK(BM_FuzzFirstViolationStaged)->Unit(benchmark::kMicrosecond);

void BM_FuzzFirstViolationLivelock(benchmark::State& state) {
  // retry-silent at t = ∞ livelocks: the witness is a machine-checked
  // cycle, exercising the in-execution revisit detector.
  run_first_violation(state,
                      fuzz_spec("retry-silent", {}, model::FaultKind::kSilent,
                                model::kUnbounded, 2, 5'000'000));
}
BENCHMARK(BM_FuzzFirstViolationLivelock)->Unit(benchmark::kMicrosecond);

// --- JSON report mode ------------------------------------------------------

void emit_throughput(util::JsonWriter& w, std::string_view name,
                     verify::JobSpec spec) {
  spec.seed = 1;
  const verify::Report report = verify::execute(verify::instantiate(spec));
  const double seconds = static_cast<double>(report.engine_micros) * 1e-6;
  w.key(name).begin_object();
  w.kv("executions", report.fuzz->executions);
  w.kv("total_steps", report.fuzz->total_steps);
  w.kv("unique_states", report.fuzz->unique_states);
  w.kv("seconds", seconds);
  w.kv("schedules_per_sec",
       seconds > 0 ? static_cast<double>(report.fuzz->executions) / seconds
                   : 0.0);
  w.kv("steps_per_sec",
       seconds > 0 ? static_cast<double>(report.fuzz->total_steps) / seconds
                   : 0.0);
  w.end_object();
}

/// Steps/sec over the whole budget and over its second half.  The second
/// half is timed as the difference between this run and a half-budget
/// run on the same seed, which repeats the first half exactly (a
/// campaign is a pure function of its job).
void emit_corpus_fill(util::JsonWriter& w, std::string_view name,
                      verify::JobSpec spec) {
  spec.seed = 1;
  const verify::Report full = verify::execute(verify::instantiate(spec));
  spec.fuzz_steps /= 2;
  const verify::Report half = verify::execute(verify::instantiate(spec));
  const double seconds = static_cast<double>(full.engine_micros) * 1e-6;
  const double late_seconds =
      seconds - static_cast<double>(half.engine_micros) * 1e-6;
  const auto late_steps = static_cast<double>(full.fuzz->total_steps -
                                              half.fuzz->total_steps);
  w.key(name).begin_object();
  w.kv("executions", full.fuzz->executions);
  w.kv("total_steps", full.fuzz->total_steps);
  w.kv("corpus_entries", full.fuzz->corpus_entries);
  w.kv("unique_states", full.fuzz->unique_states);
  w.kv("seconds", seconds);
  w.kv("steps_per_sec",
       seconds > 0 ? static_cast<double>(full.fuzz->total_steps) / seconds
                   : 0.0);
  w.kv("late_steps_per_sec", late_seconds > 0 ? late_steps / late_seconds
                                              : 0.0);
  w.end_object();
}

void emit_first_violation(util::JsonWriter& w, std::string_view name,
                          verify::JobSpec spec) {
  spec.seed = 1;
  const verify::Report report = verify::execute(verify::instantiate(spec));
  const double seconds = static_cast<double>(report.engine_micros) * 1e-6;
  w.key(name).begin_object();
  w.kv("found", report.violation.has_value());
  if (report.violation) {
    w.kv("kind", to_string(report.violation->kind));
  }
  w.kv("time_to_first_violation_sec", seconds);
  w.kv("execs_to_violation", report.fuzz->executions);
  w.kv("steps_to_violation", report.fuzz->total_steps);
  w.kv("witness_steps", report.fuzz->witness_steps_found);
  w.kv("witness_steps_shrunk", report.fuzz->witness_steps_shrunk);
  w.end_object();
}

int write_report(const std::string& path, bool smoke) {
  const std::uint64_t throughput_budget = smoke ? 20'000 : 200'000;
  const std::uint64_t corpus_fill_budget = smoke ? 50'000 : 500'000;
  const std::uint64_t violation_budget = smoke ? 500'000 : 5'000'000;

  util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "B4");
  w.kv("smoke", smoke);
  emit_throughput(w, "throughput_retry_silent",
                  fuzz_spec("retry-silent", {}, model::FaultKind::kSilent, 1,
                            2, throughput_budget));
  emit_throughput(w, "throughput_staged_safe",
                  fuzz_spec("staged", {{"f", 1}, {"t", 1}},
                            model::FaultKind::kOverriding, 1, 2,
                            throughput_budget));
  // The benchmark's proof-sym job: staged f=2 t=1 n=3, symmetry on,
  // violation-free, so the whole budget goes into filling the corpus.
  emit_corpus_fill(w, "throughput_corpus_fill",
                   fuzz_spec("staged", {{"f", 2}, {"t", 1}},
                             model::FaultKind::kOverriding, 1, 3,
                             corpus_fill_budget));
  emit_first_violation(w, "first_violation_single_cas",
                       fuzz_spec("single-cas", {},
                                 model::FaultKind::kOverriding, 1, 3,
                                 violation_budget));
  emit_first_violation(w, "first_violation_livelock",
                       fuzz_spec("retry-silent", {}, model::FaultKind::kSilent,
                                 model::kUnbounded, 2, violation_budget));
  w.end_object();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << w.str() << "\n";
  std::cout << "B4 report -> " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return write_report(json_path, smoke);
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
