// B6 — throughput of the batched owner-computes frontier explorer.
//
// Two questions feed the BENCH trajectory:
//   * How fast is the frontier engine, on every hardware thread, against
//     the sequential DFS on one thread on the reference instance (staged
//     f=1 t=2, three distinct inputs — symmetry-reduced, so the
//     canonical-fingerprint path is hot)?  Both engines run back-to-back
//     within each repetition and the PAIRED states/sec ratio is taken per
//     round, so machine noise hits both sides of each division; the
//     reported speedup is the median of the per-round ratios, with their
//     min and max beside it so a reader can see how far a round strays
//     from the bar (scripts/bench_gate.py).
//   * Does the frontier census stay equal to the DFS's, the oracle, while
//     it runs?  Every repetition compares them with census_equal.
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
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "verify/run.hpp"

namespace {

using namespace ff;

/// The frontier runs one worker per hardware thread: more would only
/// oversubscribe the cores its workers spin on.
std::uint32_t frontier_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

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
  spec.threads = frontier_threads();  // the DFS ignores it
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

void BM_FrontierExploreStaged(benchmark::State& state) {
  run_reference(state, reference_spec(verify::Engine::kFrontier));
}
BENCHMARK(BM_FrontierExploreStaged)->Unit(benchmark::kMillisecond);

// --- JSON report mode ------------------------------------------------------

/// Paired throughput rounds: DFS then frontier back-to-back, the
/// per-round states/sec ratio recorded, speedup = median of the ratios.
void emit_throughput(util::JsonWriter& w, std::uint64_t reps) {
  const verify::Instance dfs_instance =
      verify::instantiate(reference_spec(verify::Engine::kDfs));
  const verify::Instance frontier_instance =
      verify::instantiate(reference_spec(verify::Engine::kFrontier));

  std::vector<double> ratios;
  double dfs_secs = 0.0;
  double frontier_secs = 0.0;
  std::uint64_t states = 0;
  std::uint64_t dfs_peak = 0;
  std::uint64_t frontier_peak = 0;
  std::uint64_t waves = 0;
  bool census_ok = true;
  bool complete = true;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const verify::Report dr = verify::execute(dfs_instance);
    const double dsecs = report_seconds(dr);
    const verify::Report fr = verify::execute(frontier_instance);
    const double fsecs = report_seconds(fr);

    census_ok = census_ok && census_equal(dr, fr);
    complete = complete && dr.complete && fr.complete;
    if (dsecs > 0.0 && fsecs > 0.0 && dr.states_visited > 0) {
      ratios.push_back((static_cast<double>(fr.states_visited) / fsecs) /
                       (static_cast<double>(dr.states_visited) / dsecs));
    }
    dfs_secs += dsecs;
    frontier_secs += fsecs;
    states = fr.states_visited;
    dfs_peak = dr.peak_bytes;
    frontier_peak = fr.peak_bytes;
    waves = fr.frontier->waves;
  }

  w.key("throughput").begin_object();
  w.kv("protocol", "staged f=1 t=2 n=3 distinct");
  w.kv("threads", std::uint64_t{frontier_threads()});
  w.kv("reps", reps);
  w.kv("states", states);
  w.kv("waves", waves);
  w.kv("dfs_mean_seconds",
       reps > 0 ? dfs_secs / static_cast<double>(reps) : 0.0);
  w.kv("frontier_mean_seconds",
       reps > 0 ? frontier_secs / static_cast<double>(reps) : 0.0);
  w.kv("dfs_peak_bytes", dfs_peak);
  w.kv("frontier_peak_bytes", frontier_peak);
  // Frontier ÷ DFS peak_bytes: the census bytes the frontier pays per
  // state relative to the DFS (printed by scripts/bench_gate.py, not
  // gated).
  w.kv("bytes_ratio", dfs_peak > 0 ? static_cast<double>(frontier_peak) /
                                         static_cast<double>(dfs_peak)
                                   : 0.0);
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
  std::cout << "B6 frontier/dfs states/s: median " << speedup
            << "x (min " << speedup_min << "x, max " << speedup_max
            << "x) over " << ratios.size() << " paired rounds\n";
}

int write_report(const std::string& path, bool smoke) {
  const std::uint64_t reps = smoke ? 7 : 15;

  util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "B6");
  w.kv("smoke", smoke);
  emit_throughput(w, reps);
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
