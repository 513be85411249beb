// B7 — the persistent census cache: warm-hit speedup and report fidelity.
//
// One question feeds the BENCH trajectory: what does a verification
// re-run cost once the census is on disk?  The reference job (staged
// f=1 t=2 at n=3 distinct inputs — the same ~1.37M-state instance B3
// and B6 calibrate on; smoke drops to t=1) is run COLD into a fresh
// cache directory, then re-run WARM against the same directory.  Gated
// by scripts/bench_gate.py:
//   * speedup        cold_seconds / warm_seconds  >= 100x — a disk read
//                    plus a fingerprint fold must be orders of magnitude
//                    cheaper than the search it replaces;
//   * report_match   the warm Report is BIT-IDENTICAL to the cold one
//                    (canonical JSON compared byte for byte);
//   * cache_hit      the warm run was answered by the cache with
//                    fresh_states_expanded == 0.
// Modes:
//   (default)        google-benchmark suite (BM_WarmCacheLookup)
//   --json <path>    machine-readable BENCH_B7 report for
//                    scripts/bench_gate.py
//   --smoke          smaller reference instance for CI gating (check.sh).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "verify/cache.hpp"
#include "verify/run.hpp"

namespace {

using namespace ff;

namespace fs = std::filesystem;

/// The reference job.  DFS engine: single-threaded search is the
/// steadiest cold-side denominator, and cacheability is what B7 gates,
/// not engine scaling (B6 owns that).  Smoke keeps symmetry on (~360k
/// canonical states — a cold second, and 100x headroom over a warm disk
/// read); the full report turns it off (~1.37M states).
verify::JobSpec reference_spec(bool smoke) {
  verify::JobSpec spec;
  spec.protocol = "staged";
  spec.params = {{"f", 1}, {"t", 2}};
  spec.t = 2;
  spec.processes = 3;
  spec.stop_at_first_violation = false;
  if (!smoke) spec.symmetry_reduction = false;
  return spec;
}

/// A fresh, empty cache directory under the system temp root.
fs::path fresh_cache_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- google-benchmark suite ------------------------------------------------

void BM_WarmCacheLookup(benchmark::State& state) {
  // Cost of one warm hit end to end: fingerprint the job, load the
  // entry, soundness-check the program fingerprint, parse the Report.
  const auto dir = fresh_cache_dir("ffb7_bm_cache");
  verify::Cache cache(dir.string());
  const verify::JobSpec spec = reference_spec(/*smoke=*/true);
  benchmark::DoNotOptimize(verify::run(spec, &cache));  // cold fill
  for (auto _ : state) {
    const verify::RunOutcome warm = verify::run(spec, &cache);
    if (!warm.cache_hit) state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(warm);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}
BENCHMARK(BM_WarmCacheLookup)->Unit(benchmark::kMicrosecond);

// --- JSON report mode ------------------------------------------------------

int write_report(const std::string& path, bool smoke) {
  const verify::JobSpec spec = reference_spec(smoke);
  const auto dir = fresh_cache_dir("ffb7_cache");
  verify::Cache cache(dir.string());

  auto start = std::chrono::steady_clock::now();
  const verify::RunOutcome cold = verify::run(spec, &cache);
  const double cold_seconds = seconds_since(start);

  // Warm side: several reps, best and median — one disk read is cheap
  // enough that a single sample is scheduler noise.
  const int warm_reps = 9;
  std::vector<double> warm_times;
  bool warm_hits = true;
  bool zero_fresh = true;
  bool report_match = true;
  const std::string cold_json = cold.report.to_json();
  for (int rep = 0; rep < warm_reps; ++rep) {
    start = std::chrono::steady_clock::now();
    const verify::RunOutcome warm = verify::run(spec, &cache);
    warm_times.push_back(seconds_since(start));
    warm_hits = warm_hits && warm.cache_hit;
    zero_fresh = zero_fresh && warm.fresh_states_expanded == 0;
    report_match = report_match && warm.report.to_json() == cold_json;
  }
  std::sort(warm_times.begin(), warm_times.end());
  const double warm_median = warm_times[warm_times.size() / 2];
  const double warm_best = warm_times.front();

  const auto stats = cache.stats();
  std::error_code ec;
  fs::remove_all(dir, ec);

  const double speedup =
      warm_median > 0.0 ? cold_seconds / warm_median : 0.0;

  util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "B7");
  w.kv("smoke", smoke);
  w.kv("protocol", "staged f=1 t=2 n=3 distinct");
  w.kv("states", cold.report.states_visited);
  w.kv("fingerprint", verify::job_fingerprint(spec.canonicalized()).hex());
  w.kv("cold_seconds", cold_seconds);
  w.kv("warm_seconds", warm_median);
  w.kv("warm_best_seconds", warm_best);
  w.kv("warm_reps", std::uint64_t{warm_reps});
  w.kv("speedup", speedup);
  w.kv("cache_hit", warm_hits);
  w.kv("zero_fresh_states", zero_fresh);
  w.kv("report_match", report_match);
  w.kv("cold_was_hit", cold.cache_hit);  // must be false: dir was fresh
  w.kv("entry_bytes", stats.bytes);
  w.end_object();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << w.str() << "\n";
  std::cout << "B7: cold=" << cold_seconds << "s warm=" << warm_median
            << "s speedup=" << speedup << "x report_match=" << report_match
            << " cache_hit=" << warm_hits << " -> " << path << "\n";
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
