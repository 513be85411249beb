#include "checks.hpp"

namespace perfbench {

using ff::verify::Engine;
using ff::verify::JobSpec;
using ff::verify::Report;

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kViolation: return "violation";
    case Outcome::kClean: return "clean";
    case Outcome::kCapHit: return "cap hit";
    case Outcome::kNoAnswer: return "partial, no violation";
  }
  return "unknown";
}

Outcome classify(const JobSpec& spec, const Report& report) {
  if (report.violation || report.violations_found > 0) {
    return Outcome::kViolation;
  }
  if (report.complete) return Outcome::kClean;
  if (spec.engine == Engine::kFuzz) {
    const std::uint64_t steps = report.fuzz ? report.fuzz->total_steps : 0;
    return spec.fuzz_steps != 0 && steps >= spec.fuzz_steps
               ? Outcome::kCapHit
               : Outcome::kNoAnswer;
  }
  return spec.max_states != 0 && report.states_visited >= spec.max_states
             ? Outcome::kCapHit
             : Outcome::kNoAnswer;
}

std::string census_mismatch(const Report& report, const Census& expected) {
  std::string why;
  const auto note = [&why](const std::string& s) {
    why += why.empty() ? s : "; " + s;
  };
  if (!report.complete) note("incomplete");
  if (report.violation || report.violations_found > 0) note("violation");
  if (report.states_visited != expected.states) {
    note("states " + std::to_string(report.states_visited) + " != " +
         std::to_string(expected.states));
  }
  if (report.terminal_states != expected.terminal) {
    note("terminal " + std::to_string(report.terminal_states) + " != " +
         std::to_string(expected.terminal));
  }
  if (report.agreed_values != expected.agreed) note("agreed values differ");
  return why;
}

Judgement judge(const JobSpec& spec, const Report& report, const Report* dfs,
                const std::optional<Census>& expected) {
  Judgement j;
  const Outcome outcome = classify(spec, report);
  if (outcome == Outcome::kNoAnswer) {
    j.failed = true;
    j.why = to_string(outcome);
    return j;
  }
  if (expected && spec.engine != Engine::kFuzz) {
    j.why = census_mismatch(report, *expected);
  } else if (expected && outcome == Outcome::kViolation) {
    j.why = "violation on a proof instance";
  } else if (dfs != nullptr && spec.engine != Engine::kDfs) {
    // Only kViolation and kClean are compared, and neither depends on
    // which engine's spec classifies the DFS report.
    const Outcome reference = classify(spec, *dfs);
    const bool contradicts =
        (outcome == Outcome::kViolation && reference == Outcome::kClean) ||
        (outcome == Outcome::kClean && reference == Outcome::kViolation);
    if (contradicts) {
      j.why = std::string(to_string(outcome)) + " where dfs gave " +
              to_string(reference);
    } else if (outcome == Outcome::kClean && reference == Outcome::kClean &&
               !ff::verify::census_equal(report, *dfs)) {
      j.why = "census differs from dfs";
    }
  }
  j.wrong = !j.why.empty();
  j.failed = j.wrong;
  return j;
}

Judgement judge_warm(const Judgement& cold, const std::string& cold_json,
                     const std::optional<std::string>& warm_json,
                     bool cache_hit, const std::string& error) {
  if (cold_json.empty()) return cold;
  Judgement j;
  if (!warm_json) {
    j.why = "warm run threw " + error;
  } else if (!cache_hit || *warm_json != cold_json) {
    j.why = "warm answer is not a byte-identical hit";
  } else {
    return cold;
  }
  j.failed = j.wrong = true;
  return j;
}

}  // namespace perfbench
