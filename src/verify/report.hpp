// verify::Report — the unified result of any verification job: a
// superset of sched::ExploreResult, sched::FrontierStats,
// sched::FuzzResult's summary and runtime::StressReport, with a STABLE
// JSON serialization.
//
// Stability contract: to_json() emits a fixed key order with
// integer-only numerics (timing is microseconds, not a decimal), and
// from_json(to_json(r)) == r bit-for-bit.  That is what lets the census
// cache promise "a warm hit is the stored Report, byte-identical" —
// there is no float round-trip to drift through (tests/test_verify_cache
// pins the round-trip; DESIGN.md §3j states the argument).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "sched/explorer.hpp"
#include "sched/frontier_explorer.hpp"
#include "sched/fuzzer.hpp"
#include "util/json_parse.hpp"
#include "verify/job.hpp"

namespace ff::verify {

/// Fuzz-engine summary carried in the Report: the FuzzStats counters
/// plus the final RNG state (campaign resumption); the corpus and
/// coverage set stay with sched::FuzzResult::to_json() — they are bulk
/// campaign state, not a verification verdict.
struct FuzzSummary {
  std::uint64_t executions = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t corpus_entries = 0;
  std::uint64_t unique_states = 0;
  std::optional<std::uint64_t> first_violation_exec;
  std::uint64_t witness_steps_found = 0;
  std::uint64_t witness_steps_shrunk = 0;
  std::array<std::uint64_t, 4> rng_state{};

  friend bool operator==(const FuzzSummary&, const FuzzSummary&) = default;
};

/// Stress-engine summary: the trial census (stress jobs are never
/// cached — OS scheduling makes them non-reproducible — but they print
/// through the same Report pipeline).
struct StressSummary {
  std::uint64_t trials = 0;
  std::uint64_t ok = 0;
  std::uint64_t inconsistent = 0;
  std::uint64_t invalid = 0;
  std::uint64_t undecided = 0;
  std::optional<std::uint64_t> first_violation;

  friend bool operator==(const StressSummary&, const StressSummary&) = default;
};

struct Report {
  /// Canonical protocol name and the engine that produced the result.
  std::string protocol;
  Engine engine = Engine::kDfs;
  bool complete = false;

  // Census (explore family; the fuzzer maps unique_states here so every
  // engine reports comparable coverage numbers).
  std::uint64_t states_visited = 0;
  std::uint64_t terminal_states = 0;
  std::uint64_t violations_found = 0;
  std::map<sched::ViolationKind, std::uint64_t> violations_by_kind;
  std::uint64_t max_depth = 0;
  std::set<std::uint64_t> agreed_values;
  std::uint64_t table_grows = 0;
  std::uint64_t immunity_checks = 0;
  std::uint64_t immunity_skips = 0;
  std::uint64_t peak_bytes = 0;

  /// Witness for the reported violation, strictly replayable.
  std::optional<sched::Violation> violation;

  /// Engine-specific sections (absent = engine did not run).
  std::optional<sched::FrontierStats> frontier;
  std::optional<FuzzSummary> fuzz;
  std::optional<StressSummary> stress;

  /// Wait-freedom bound (JobSpec::wait_free_bound, on a complete,
  /// violation-free dfs or frontier run whose state graph is acyclic).
  std::optional<std::uint64_t> wait_free_bound;

  /// Engine wall time in microseconds (integer on purpose — see header).
  std::uint64_t engine_micros = 0;

  [[nodiscard]] std::uint64_t violations_of(sched::ViolationKind kind) const {
    const auto it = violations_by_kind.find(kind);
    return it == violations_by_kind.end() ? 0 : it->second;
  }

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static Report from_json(const util::JsonValue& doc);
  [[nodiscard]] static Report parse(std::string_view text);

  friend bool operator==(const Report&, const Report&) = default;
};

/// True when two reports describe the same state-space census — the
/// cross-engine comparison the differential suites gate on (engine
/// counters like max_depth or frontier stats legitimately differ).
[[nodiscard]] bool census_equal(const Report& a, const Report& b);

}  // namespace ff::verify
