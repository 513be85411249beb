// The benchmark's three workloads, each a list of verification jobs.
//
// A job is engine-agnostic; a pass runs every job of a workload once
// with one engine, through engine_spec().  README.md says why each
// workload was chosen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "verify/job.hpp"

namespace perfbench {

/// Worker threads for the frontier engine (the core count of the
/// machine the benchmark was calibrated on).
inline constexpr std::uint32_t kFrontierThreads = 4;

struct Job {
  std::string label;
  ff::verify::JobSpec spec;      ///< engine dfs; engine_spec() derives the rest
  std::optional<Census> census;  ///< set on proof jobs
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  std::uint64_t fuzz_steps = 0;   ///< step budget of each fuzz job
  std::uint64_t seed = 0;         ///< workload seed: fuzz seeds, sampling
  std::uint32_t setup_batch = 1;  ///< preparations per CPU per setup sample
  std::uint32_t warm_batch = 1;   ///< warm passes per CPU per warm sample
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The engines a pass can run, in the order of an even round.
inline constexpr ff::verify::Engine kEngines[] = {
    ff::verify::Engine::kDfs, ff::verify::Engine::kFrontier,
    ff::verify::Engine::kFuzz};

/// Job `index` of `w` as run by `engine`.
[[nodiscard]] ff::verify::JobSpec engine_spec(const Workload& w,
                                              std::size_t index,
                                              ff::verify::Engine engine);

/// SplitMix64 finaliser; the benchmark's only source of randomness.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
