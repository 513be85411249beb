// verify::JobSpec — the canonical, hashable description of ONE
// verification run, and the value type every front end (fault_explorer,
// the B-series benches, perfbench and the differential test harnesses)
// constructs instead of wiring raw engine option structs.
//
// A job names a protocol (registry name + params), a fault model
// (kind + fault/crash budgets), an engine, the reduction flags, and the
// budget limits.  Two invariants make it the substrate the persistent
// census cache stands on:
//
//   * STRICT VALIDATION.  Illegal combinations are rejected with a
//     thrown std::invalid_argument, never silently ignored — e.g. the
//     stress engine refuses simulator-only fault branching, a protocol
//     sized for n processes refuses more, and unknown protocols/engines
//     name themselves in the error.
//   * CANONICAL JSON.  canonical_json() emits every semantic field in a
//     fixed order with aliases resolved to canonical registry names and
//     params normalized against the protocol's schema (defaults filled,
//     unknown keys dropped), so equal jobs serialize to equal bytes.
//     The one execution hint that cannot change the result census — the
//     thread count — lives in a separate "exec" section that is
//     serialized (round-trip) but EXCLUDED from the job fingerprint
//     (DESIGN.md §3j).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "model/fault_kind.hpp"
#include "model/tolerance.hpp"
#include "util/json_parse.hpp"

namespace ff::verify {

enum class Engine : std::uint8_t {
  kDfs,       ///< sequential in-place DFS (sched/explorer.hpp)
  kFrontier,  ///< batched owner-computes BFS (sched/frontier_explorer.hpp)
  kFuzz,      ///< coverage-guided schedule fuzzing (sched/fuzzer.hpp)
  kStress,    ///< real-thread trials (runtime/stress.hpp)
};

[[nodiscard]] constexpr std::string_view to_string(Engine e) noexcept {
  switch (e) {
    case Engine::kDfs: return "dfs";
    case Engine::kFrontier: return "frontier";
    case Engine::kFuzz: return "fuzz";
    case Engine::kStress: return "stress";
  }
  return "unknown";
}

/// Parses an engine name; throws std::invalid_argument on anything else.
[[nodiscard]] Engine engine_from_string(std::string_view name);

/// Parses a fault-kind name in the CLI vocabulary (`data` accepted as an
/// alias for `data-corruption`); throws std::invalid_argument otherwise.
[[nodiscard]] model::FaultKind fault_kind_from_string(std::string_view name);

struct JobSpec {
  // --- semantic fields (folded into the job fingerprint) ---------------
  /// Registry name or alias; canonicalized by canonicalized()/validate().
  std::string protocol = "staged";
  /// Protocol parameters; normalized against the registry schema.
  std::map<std::string, std::uint64_t> params;
  model::FaultKind kind = model::FaultKind::kOverriding;
  /// Faults per faulty object (model::kUnbounded = no budget).
  std::uint32_t t = 1;
  /// Max crashes per process (0 = crash branches disabled).
  std::uint32_t crash_budget = 0;
  /// Processes; inputs are 1..n (distinct) or all-1 (equal_inputs).
  std::uint32_t processes = 2;
  bool equal_inputs = false;
  Engine engine = Engine::kDfs;
  /// Force the IrMachine interpreter instead of the generated machines —
  /// the differential-oracle side of codegen comparisons.
  bool interpreted = false;
  bool symmetry_reduction = true;
  bool immunity_pruning = true;
  bool killed_is_violation = false;
  bool stop_at_first_violation = true;
  /// Explore-family state cap (0 = unlimited).
  std::uint64_t max_states = 4'000'000;
  /// Also return the wait-freedom bound (longest execution) of a
  /// complete, violation-free dfs or frontier run, read off the census's
  /// own search.  The fuzz and stress engines reject it.
  bool wait_free_bound = false;
  /// Fuzz/stress seed.
  std::uint64_t seed = 1;
  /// Fuzz budgets (steps / wall-clock ms / executions; 0 = unlimited).
  std::uint64_t fuzz_steps = 2'000'000;
  std::uint64_t fuzz_millis = 0;
  std::uint64_t fuzz_execs = 0;
  bool shrink = true;
  /// Stress budget in trials.
  std::uint64_t trials = 100;

  // --- execution hint (serialized, NOT fingerprinted) -------------------
  /// Frontier worker threads (0 = hardware concurrency).
  std::uint32_t threads = 0;

  /// Ignored, and neither serialized nor fingerprinted: sleep-set
  /// partial-order reduction is gone from every engine.  Kept only while
  /// perfbench still assigns it (ROADMAP item 3 deletes both);
  /// canonicalized() clears it.
  bool sleep_sets = false;

  /// Throws std::invalid_argument naming the first violated rule.
  void validate() const;

  /// Returns a copy with the protocol alias resolved to its canonical
  /// registry name, params normalized against the schema (defaults
  /// filled in, keys outside the schema dropped) and the ignored
  /// sleep_sets cleared.  Validates first.
  [[nodiscard]] JobSpec canonicalized() const;

  /// Full canonical document: {"job": {...semantic...}, "exec": {...}}.
  /// Canonicalizes (and therefore validates) first.
  [[nodiscard]] std::string canonical_json() const;

  /// Inverse of canonical_json(); unknown members are rejected-by-schema
  /// (missing required members throw util::JsonParseError, wrong types
  /// throw too) so a corrupted document can never half-populate a spec.
  [[nodiscard]] static JobSpec from_json(const util::JsonValue& doc);
  [[nodiscard]] static JobSpec parse(std::string_view text);

  /// A job is cacheable iff its result is a pure function of the spec:
  /// real-thread stress trials depend on OS scheduling and a wall-clock
  /// fuzz deadline truncates nondeterministically, so neither is ever
  /// stored or served from the cache.
  [[nodiscard]] bool cacheable() const {
    return engine != Engine::kStress &&
           !(engine == Engine::kFuzz && fuzz_millis != 0);
  }

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// 128-bit canonical job fingerprint: the resolved proto::Program's
/// structural fingerprint (proto/fingerprint.hpp) folded with the
/// canonical semantic-field document, so an IR change and an option
/// change each invalidate exactly the affected cache entries.
struct JobFingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  /// 32 lowercase hex chars — the cache entry's file stem.
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const JobFingerprint&,
                         const JobFingerprint&) = default;
};

/// Computes the fingerprint, resolving the program through the registry
/// (throws like validate() on an invalid spec).  The resolved program
/// fingerprint is also returned via `program_fp` when non-null — the
/// cache stores it separately so a hit can re-verify soundness.
[[nodiscard]] JobFingerprint job_fingerprint(
    const JobSpec& spec, std::uint64_t* program_fp = nullptr);

}  // namespace ff::verify
