// Output checks: what counts as a correct, a failed and a wrong answer.
//
// Every job the benchmark runs is judged here, whatever the engine:
//
//   * A proof job carries its expected census (states, terminal states,
//     agreed values) and its DFS and frontier Reports must match it.
//   * Every answer is classified as a verdict (a violation, or a complete
//     violation-free census), a cap hit (the state or step budget ran
//     out first), or no answer.  No answer, or an exception, is a FAILED
//     job: the program gave up without a reason a user could act on.
//   * A verdict that contradicts the DFS verdict on the same job, or a
//     complete census that differs from the DFS one, is a WRONG answer.
//     It is failed too, and it also makes the run incorrect.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include "verify/job.hpp"
#include "verify/report.hpp"

namespace perfbench {

struct Census {
  std::uint64_t states = 0;
  std::uint64_t terminal = 0;
  std::set<std::uint64_t> agreed;
};

enum class Outcome : std::uint8_t {
  kViolation,  ///< a violation was reported
  kClean,      ///< the search completed without a violation
  kCapHit,     ///< no violation before the state or step budget ran out
  kNoAnswer,   ///< incomplete without a violation and within budget
};

[[nodiscard]] const char* to_string(Outcome o);

[[nodiscard]] Outcome classify(const ff::verify::JobSpec& spec,
                               const ff::verify::Report& report);

/// Empty when `report` is a complete, violation-free run with exactly
/// `expected`'s census; otherwise what differs.
[[nodiscard]] std::string census_mismatch(const ff::verify::Report& report,
                                          const Census& expected);

struct Judgement {
  bool failed = false;
  bool wrong = false;
  std::string why;  ///< empty when the answer is fine
};

/// Judges one answer for `spec`.  `dfs` is the DFS Report of the same
/// job (absent when the DFS run itself failed or when `report` is it);
/// `expected` is the proof census, if the job has one.
[[nodiscard]] Judgement judge(const ff::verify::JobSpec& spec,
                              const ff::verify::Report& report,
                              const ff::verify::Report* dfs,
                              const std::optional<Census>& expected);

/// Judges a warm answer to a job whose cold answer was judged `cold` and
/// serialised as `cold_json` (empty when the cold run threw, so nothing
/// was cached and the cold verdict stands).  Otherwise the warm answer
/// must be a cache hit whose `Report::to_json` is `cold_json` byte for
/// byte; `warm_json` is absent when the warm run threw `error`.
[[nodiscard]] Judgement judge_warm(const Judgement& cold,
                                   const std::string& cold_json,
                                   const std::optional<std::string>& warm_json,
                                   bool cache_hit, const std::string& error);

}  // namespace perfbench
