// B6 — throughput of the batched owner-computes frontier explorer.
//
// Three questions feed the BENCH trajectory:
//   * How fast is the frontier engine against the work-stealing parallel
//     DFS on the reference instance (staged f=1 t=2, three distinct
//     inputs — symmetry-reduced, so the canonical-fingerprint path is
//     hot)?  Both engines run back-to-back within each repetition and
//     the PAIRED states/sec ratio is taken per round, so machine noise
//     hits both sides of each division; the reported speedup is the
//     median of the per-round ratios, with their min and max beside it
//     so a reader can see how far a round strays from the 2.0 bar.
//   * Does the frontier census stay bit-equal to the parallel engine's
//     while it wins?  Every repetition cross-checks states, terminals,
//     per-kind violation counts and agreed values.
//   * Is the disk-spill path free of census drift?  A forced-spill run
//     (mem_limit_bytes = 1: every wave spills) must reproduce the
//     in-memory census exactly while actually writing runs.
//
// Both sides of every pair are verify::JobSpecs run through
// verify::instantiate()/execute(), differing only in the engine.
//
// Modes:
//   (default)        google-benchmark suite (all BM_* below)
//   --json <path>    machine-readable BENCH_B6 report for
//                    scripts/bench_gate.py
//   --smoke          reduced repetition count for CI gating (check.sh).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "verify/run.hpp"

namespace {

using namespace ff;

constexpr std::uint32_t kThreads = 8;  // capped to hardware concurrency

/// The reference job: staged f=1 t=2 under overriding faults with three
/// DISTINCT inputs — big enough to spread over shards (~360k canonical
/// states), distinct inputs so validity tracking stays hot.
verify::JobSpec reference_spec(verify::Engine engine) {
  verify::JobSpec spec;
  spec.protocol = "staged";
  spec.params = {{"f", 1}, {"t", 2}};
  spec.t = 2;
  spec.processes = 3;
  spec.engine = engine;
  spec.threads = kThreads;
  spec.stop_at_first_violation = false;
  return spec;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double report_seconds(const verify::Report& report) {
  return static_cast<double>(report.engine_micros) * 1e-6;
}

// --- google-benchmark suite ------------------------------------------------

void run_reference(benchmark::State& state, const verify::JobSpec& spec) {
  const verify::Instance instance = verify::instantiate(spec);
  std::uint64_t states = 0;
  for (auto _ : state) {
    const verify::Report report = verify::execute(instance);
    states = report.states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_ParallelExploreStaged(benchmark::State& state) {
  run_reference(state, reference_spec(verify::Engine::kParallel));
}
BENCHMARK(BM_ParallelExploreStaged)->Unit(benchmark::kMillisecond);

void BM_FrontierExploreStaged(benchmark::State& state) {
  run_reference(state, reference_spec(verify::Engine::kFrontier));
}
BENCHMARK(BM_FrontierExploreStaged)->Unit(benchmark::kMillisecond);

void BM_FrontierForcedSpill(benchmark::State& state) {
  // Same instance with a one-byte watermark: every wave spills, so this
  // measures the sort + run-write + merge-join overhead end to end.
  const auto dir =
      std::filesystem::temp_directory_path() / "ffb6_bm_spill";
  verify::JobSpec spec = reference_spec(verify::Engine::kFrontier);
  spec.spill_dir = dir.string();
  spec.mem_limit_bytes = 1;
  run_reference(state, spec);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_FrontierForcedSpill)->Unit(benchmark::kMillisecond);

// --- JSON report mode ------------------------------------------------------

/// Paired throughput rounds: parallel then frontier back-to-back, the
/// per-round states/sec ratio recorded, speedup = median of the ratios.
void emit_throughput(util::JsonWriter& w, std::uint64_t reps) {
  const verify::Instance parallel_instance =
      verify::instantiate(reference_spec(verify::Engine::kParallel));
  const verify::Instance frontier_instance =
      verify::instantiate(reference_spec(verify::Engine::kFrontier));

  std::vector<double> ratios;
  double parallel_secs = 0.0;
  double frontier_secs = 0.0;
  std::uint64_t states = 0;
  std::uint64_t parallel_peak = 0;
  std::uint64_t frontier_peak = 0;
  std::uint64_t waves = 0;
  bool census_ok = true;
  bool complete = true;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const verify::Report pr = verify::execute(parallel_instance);
    const double psecs = report_seconds(pr);
    const verify::Report fr = verify::execute(frontier_instance);
    const double fsecs = report_seconds(fr);

    census_ok = census_ok && census_equal(fr, pr);
    complete = complete && pr.complete && fr.complete;
    if (psecs > 0.0 && fsecs > 0.0 && pr.states_visited > 0) {
      ratios.push_back((static_cast<double>(fr.states_visited) / fsecs) /
                       (static_cast<double>(pr.states_visited) / psecs));
    }
    parallel_secs += psecs;
    frontier_secs += fsecs;
    states = fr.states_visited;
    parallel_peak = pr.peak_bytes;
    frontier_peak = fr.peak_bytes;
    waves = fr.frontier->waves;
  }

  w.key("throughput").begin_object();
  w.kv("protocol", "staged f=1 t=2 n=3 distinct");
  w.kv("threads", std::uint64_t{kThreads});
  w.kv("reps", reps);
  w.kv("states", states);
  w.kv("waves", waves);
  w.kv("parallel_mean_seconds",
       reps > 0 ? parallel_secs / static_cast<double>(reps) : 0.0);
  w.kv("frontier_mean_seconds",
       reps > 0 ? frontier_secs / static_cast<double>(reps) : 0.0);
  w.kv("parallel_peak_bytes", parallel_peak);
  w.kv("frontier_peak_bytes", frontier_peak);
  w.kv("census_match", census_ok);
  w.kv("complete", complete);
  const double speedup = median(ratios);
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  const double speedup_min = ratios.empty() ? 0.0 : *lo;
  const double speedup_max = ratios.empty() ? 0.0 : *hi;
  w.kv("speedup", speedup);
  w.kv("speedup_min", speedup_min);
  w.kv("speedup_max", speedup_max);
  w.end_object();
  std::cout << "B6 frontier/parallel states/s: median " << speedup
            << "x (min " << speedup_min << "x, max " << speedup_max
            << "x) over " << ratios.size() << " paired rounds\n";
}

/// Forced-spill parity: mem_limit_bytes = 1 spills every wave; the
/// census must be bit-equal to the in-memory frontier run AND runs must
/// actually have been written (else the spill path went untested).
void emit_spill_parity(util::JsonWriter& w) {
  const verify::Report in_memory = verify::execute(
      verify::instantiate(reference_spec(verify::Engine::kFrontier)));

  const auto dir = std::filesystem::temp_directory_path() / "ffb6_spill";
  verify::JobSpec spec = reference_spec(verify::Engine::kFrontier);
  spec.spill_dir = dir.string();
  spec.mem_limit_bytes = 1;
  const verify::Report spilled =
      verify::execute(verify::instantiate(spec));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  w.key("spill").begin_object();
  w.kv("seconds", report_seconds(spilled));
  w.kv("spill_runs", spilled.frontier->spill_runs);
  w.kv("spilled_records", spilled.frontier->spilled_records);
  w.kv("spill_bytes", spilled.frontier->spill_bytes);
  w.kv("peak_bytes", spilled.peak_bytes);
  w.kv("spill_parity", census_equal(spilled, in_memory) &&
                           spilled.frontier->spill_runs > 0);
  w.end_object();
}

int write_report(const std::string& path, bool smoke) {
  const std::uint64_t reps = smoke ? 3 : 7;

  util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "B6");
  w.kv("smoke", smoke);
  emit_throughput(w, reps);
  emit_spill_parity(w);
  w.end_object();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << w.str() << "\n";
  std::cout << "B6 report -> " << path << "\n";
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
