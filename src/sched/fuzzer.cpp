#include "sched/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "sched/explore_common.hpp"
#include "sched/reduce.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ff::sched {

namespace {

using detail::Fingerprint;
using detail::FlatFpMap;

/// Per-execution step cap: gives up on one execution (not the run) when
/// no terminal state and no state revisit surfaced first.
constexpr std::uint64_t kMaxStepsPerExec = 4'096;
// The cycle oracle stores step indices as table values.
static_assert(kMaxStepsPerExec < FlatFpMap::kNoValue);
/// Probability of a fresh PCT walk instead of a corpus mutation (a fresh
/// walk is always used while the corpus is empty).
constexpr double kFreshWalkProb = 0.3;
/// Priority-change points per fresh PCT walk.
constexpr std::uint32_t kPctChangePoints = 3;
/// Probability of taking an enabled fault choice (walk tails and fresh
/// walks).
constexpr double kFaultBias = 0.5;
/// Corpus size cap (schedules retained for mutation).
constexpr std::size_t kMaxCorpus = 4'096;

/// Canonical ordering of choices: lower pid first (the adversary's
/// 0xFFFFFFFF pseudo-pid naturally sorts last), clean before faulty
/// before crashing, lower fault variant first.  The shrinker
/// canonicalizes towards the minimum of this order.
[[nodiscard]] std::uint64_t choice_key(const Choice& c) noexcept {
  return (static_cast<std::uint64_t>(c.pid) << 34) |
         (static_cast<std::uint64_t>(c.crash) << 33) |
         (static_cast<std::uint64_t>(c.fault) << 32) | c.fault_variant;
}

[[nodiscard]] bool is_faulty(const Choice& c) noexcept {
  return c.fault || c.crash;
}

/// The k-th choice, in enabled order, that `in_pool` accepts.  The picks
/// below count their pools and fetch the member they drew, so a pick
/// allocates nothing.
template <class InPool>
[[nodiscard]] const Choice& nth_in_pool(const std::vector<Choice>& choices,
                                        std::size_t k, InPool in_pool) {
  for (const Choice& c : choices) {
    if (!in_pool(c)) continue;
    if (k == 0) return c;
    --k;
  }
  return choices.back();  // unreachable: k is below the pool size
}

/// Unguided pick, identical in spirit to random_walk: prefer a fault or
/// crash choice with probability kFaultBias, uniform within the pool;
/// with no clean choice enabled, the pool is the faulty one.  With
/// crash_budget 0 no crash choice ever exists, so the pools — and every
/// RNG draw — are bit-identical to the crash-unaware fuzzer.
[[nodiscard]] Choice biased_pick(const std::vector<Choice>& choices,
                                 util::Xoshiro256& rng) {
  const auto faulty = static_cast<std::size_t>(
      std::count_if(choices.begin(), choices.end(), is_faulty));
  const bool take_faulty = (faulty != 0 && rng.chance(kFaultBias)) ||
                           faulty == choices.size();
  const std::size_t pool = take_faulty ? faulty : choices.size() - faulty;
  return nth_in_pool(choices, rng.below(pool), [&](const Choice& c) {
    return is_faulty(c) == take_faulty;
  });
}

/// PCT state: one priority per process plus one for the adversary's
/// corruption steps (slot `n`).  Higher value = scheduled first.
struct PctPriorities {
  std::vector<std::int64_t> priority;

  [[nodiscard]] std::size_t slot(objects::ProcessId pid) const noexcept {
    return pid == kAdversaryPid ? priority.size() - 1 : pid;
  }

  static PctPriorities random(std::uint32_t processes,
                              util::Xoshiro256& rng) {
    PctPriorities p;
    p.priority.resize(processes + 1);
    for (std::size_t i = 0; i < p.priority.size(); ++i) {
      p.priority[i] = static_cast<std::int64_t>(i) + 1;
    }
    for (std::size_t i = p.priority.size(); i > 1; --i) {
      std::swap(p.priority[i - 1], p.priority[rng.below(i)]);
    }
    return p;
  }

  /// Demotes the slot below every other priority (a PCT change point).
  void demote(std::size_t s) {
    const std::int64_t lowest =
        *std::min_element(priority.begin(), priority.end());
    priority[s] = lowest - 1;
  }
};

[[nodiscard]] Choice pct_pick(const std::vector<Choice>& choices,
                              const PctPriorities& prio,
                              util::Xoshiro256& rng, double fault_bias) {
  std::size_t best_slot = prio.slot(choices.front().pid);
  for (const Choice& c : choices) {
    const std::size_t s = prio.slot(c.pid);
    if (prio.priority[s] > prio.priority[best_slot]) best_slot = s;
  }
  // The best slot owns at least one choice, so when the faulty pool is
  // not taken the clean one is non-empty, and its first member runs.
  std::size_t faulty = 0;
  std::size_t clean = 0;
  for (const Choice& c : choices) {
    if (prio.slot(c.pid) != best_slot) continue;
    ++(is_faulty(c) ? faulty : clean);
  }
  const bool take_faulty =
      faulty != 0 && (clean == 0 || rng.chance(fault_bias));
  const std::size_t k = take_faulty ? rng.below(faulty) : 0;
  return nth_in_pool(choices, k, [&](const Choice& c) {
    return prio.slot(c.pid) == best_slot && is_faulty(c) == take_faulty;
  });
}

/// Resolves a guidance choice against the currently enabled set: exact
/// match, else same (pid, fault, crash), else same pid preferring its
/// clean step.  nullopt when the process has no enabled choice at all.
[[nodiscard]] std::optional<Choice> resolve(
    const std::vector<Choice>& enabled, const Choice& want) {
  const Choice* same_pid_clean = nullptr;
  const Choice* same_pid_any = nullptr;
  for (const Choice& c : enabled) {
    if (c == want) return c;
    if (c.pid != want.pid) continue;
    if (!same_pid_any) same_pid_any = &c;
    if (!c.fault && !c.crash && !same_pid_clean) same_pid_clean = &c;
    if (c.fault == want.fault && c.crash == want.crash) return c;
  }
  if (same_pid_clean) return *same_pid_clean;
  if (same_pid_any) return *same_pid_any;
  return std::nullopt;
}

enum class Mode : std::uint8_t {
  kFresh,       ///< PCT-style priority walk
  kSplice,      ///< prefix of one corpus entry + suffix of another
  kTruncate,    ///< corpus prefix, then an unguided random tail
  kPidSwap,     ///< swap two process identities throughout
  kFaultNudge,  ///< toggle / move / revariant a fault point
};

/// Writes one execution's guidance into `out`, reading the corpus in
/// place (it holds thousands of schedules late in a campaign).
void make_guidance(Mode mode, const std::vector<std::vector<Choice>>& corpus,
                   std::uint32_t processes, util::Xoshiro256& rng,
                   std::vector<Choice>& out) {
  if (mode == Mode::kFresh) {
    // A fresh walk has no parent, yet it draws a parent index over a
    // one-entry corpus, as it always has: without that draw every later
    // one shifts, and every campaign changes.
    (void)rng.below(1);
    out.clear();
    return;
  }
  const auto& parent = corpus[rng.below(corpus.size())];
  switch (mode) {
    case Mode::kFresh:  // handled above
      return;
    case Mode::kSplice: {
      const auto& other = corpus[rng.below(corpus.size())];
      const std::size_t i = rng.below(parent.size() + 1);
      const std::size_t j = rng.below(other.size() + 1);
      out.assign(parent.begin(),
                 parent.begin() + static_cast<std::ptrdiff_t>(i));
      out.insert(out.end(), other.begin() + static_cast<std::ptrdiff_t>(j),
                 other.end());
      return;
    }
    case Mode::kTruncate: {
      const std::size_t keep = rng.below(parent.size() + 1);
      out.assign(parent.begin(),
                 parent.begin() + static_cast<std::ptrdiff_t>(keep));
      return;
    }
    case Mode::kPidSwap: {
      out = parent;
      const auto p = static_cast<objects::ProcessId>(rng.below(processes));
      const auto q = static_cast<objects::ProcessId>(rng.below(processes));
      for (Choice& c : out) {
        if (c.pid == p) {
          c.pid = q;
        } else if (c.pid == q) {
          c.pid = p;
        }
      }
      return;
    }
    case Mode::kFaultNudge: {
      out = parent;
      if (out.empty()) return;
      const std::size_t idx = rng.below(out.size());
      switch (rng.below(3)) {
        case 0:  // toggle the fault flag (and drop any crash marker)
          out[idx].fault = !out[idx].fault;
          out[idx].fault_variant = 0;
          out[idx].crash = false;
          break;
        case 1: {  // move the step one slot (shifts a fault point)
          const std::size_t other =
              idx + 1 < out.size() ? idx + 1 : (idx == 0 ? 0 : idx - 1);
          std::swap(out[idx], out[other]);
          break;
        }
        default:  // revariant: force a faulty step with a fresh variant
          out[idx].fault = true;
          out[idx].crash = false;
          out[idx].fault_variant = static_cast<std::uint32_t>(rng.below(4));
          break;
      }
      return;
    }
  }
}

/// The campaign's novelty set: a flat membership table, plus the
/// fingerprints in insertion order for FuzzResult::coverage.  It starts
/// small and grows, since most campaigns cover few states.
struct Coverage {
  FlatFpMap table{16};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fingerprints;

  /// True iff `fp` was not covered before.
  bool insert(const Fingerprint& fp) {
    if (table.insert_or_get(fp, 0) != FlatFpMap::kNoValue) return false;
    fingerprints.emplace_back(fp.a, fp.b);
    return true;
  }
};

/// One execution's result.  fuzz() keeps a single one for the whole
/// campaign, so the path buffer keeps its capacity between executions.
struct ExecOutcome {
  std::vector<Choice> path;
  bool new_coverage = false;
  bool truncated_by_budget = false;
  std::optional<ViolationKind> kind;
  std::string detail;
};

/// Runs one execution into `out`: guided by `guidance` where possible,
/// PCT-driven in fresh mode, biased-random on the tail.  Coverage
/// fingerprints are recorded after every applied step; a revisited state
/// whose repeated segment contains a process step is reported as
/// nontermination.
void run_exec(const SimWorld& initial, const std::vector<Choice>& guidance,
              bool fresh, const FuzzOptions& options, bool sym,
              util::Xoshiro256& rng, runtime::BudgetMeter& meter,
              Coverage& coverage, ExecOutcome& out) {
  out.path.clear();
  out.new_coverage = false;
  out.truncated_by_budget = false;
  out.kind.reset();
  out.detail.clear();
  SimWorld world = initial;
  StateEncoder encoder;
  EncodedState enc;

  PctPriorities prio;
  std::vector<std::uint64_t> change_points;
  if (fresh) {
    prio = PctPriorities::random(world.processes(), rng);
    change_points.reserve(kPctChangePoints);
    for (std::uint32_t i = 0; i < kPctChangePoints; ++i) {
      change_points.push_back(1 + rng.below(kMaxStepsPerExec));
    }
    std::sort(change_points.begin(), change_points.end());
  }

  // Step count at which each fingerprint was first observed (0 = the
  // initial state), for exact in-execution cycle detection.  These stay
  // EXACT even under symmetry reduction: the cycle oracle's verdict
  // promises a strict revisit of an earlier state of THIS execution,
  // which classify_schedule later re-verifies by comparing raw encodes.
  // A step count is at most kMaxStepsPerExec, below the table's
  // empty-slot value.
  FlatFpMap seen_at(64);
  encoder.encode(world, enc);
  seen_at.insert_or_get(fingerprint_state(enc, /*canonical=*/false), 0);

  while (!world.terminal()) {
    if (out.path.size() >= kMaxStepsPerExec) return;
    if (!meter.charge(1)) {
      out.truncated_by_budget = true;
      return;
    }
    const auto choices = world.enabled();
    std::optional<Choice> picked;
    if (out.path.size() < guidance.size()) {
      picked = resolve(choices, guidance[out.path.size()]);
    } else if (fresh) {
      if (!change_points.empty() && out.path.size() >= change_points.front()) {
        // A PCT change point: demote whichever slot currently runs.
        prio.demote(prio.slot(pct_pick(choices, prio, rng,
                                       /*fault_bias=*/0.0).pid));
        change_points.erase(change_points.begin());
      }
      picked = pct_pick(choices, prio, rng, kFaultBias);
    }
    const Choice choice = picked ? *picked : biased_pick(choices, rng);
    world.apply(choice);
    out.path.push_back(choice);

    // Novelty is judged on the canonical (orbit) fingerprint when
    // symmetry is active; the cycle oracle always uses the exact one.
    encoder.encode(world, enc);
    const Fingerprint fp = fingerprint_state(enc, /*canonical=*/false);
    const Fingerprint cov_fp = sym ? fingerprint_state(enc, true) : fp;
    if (coverage.insert(cov_fp)) out.new_coverage = true;
    const std::uint32_t first_seen = seen_at.insert_or_get(
        fp, static_cast<std::uint32_t>(out.path.size()));
    if (first_seen != FlatFpMap::kNoValue) {
      bool process_steps = false;
      for (std::size_t k = first_seen; k < out.path.size(); ++k) {
        if (out.path[k].pid != kAdversaryPid) {
          process_steps = true;
          break;
        }
      }
      if (process_steps) {
        out.kind = ViolationKind::kNontermination;
        out.detail = "schedule revisits the state reached after step " +
                     std::to_string(first_seen) +
                     " with a process step inside the cycle";
        return;
      }
    }
  }

  ExploreOptions eo;
  eo.killed_is_violation = options.killed_is_violation;
  out.kind = detail::check_terminal(world, eo, out.detail);
}

[[nodiscard]] std::string hex_fingerprint(std::uint64_t a, std::uint64_t b) {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

}  // namespace

FuzzResult fuzz(const SimWorld& initial, const FuzzOptions& options) {
  FuzzResult result;
  util::Xoshiro256 rng(options.seed);
  runtime::BudgetMeter meter(options.budget);

  const bool sym =
      options.symmetry_reduction && initial.processes_symmetric();
  Coverage coverage;
  {
    StateEncoder encoder;
    EncodedState enc;
    encoder.encode(initial, enc);
    coverage.insert(fingerprint_state(enc, sym));
  }

  std::vector<Choice> guidance;
  ExecOutcome exec;
  bool truncated = false;
  bool goal_met = false;
  while (true) {
    if (options.max_execs != 0 &&
        result.stats.executions >= options.max_execs) {
      goal_met = true;
      break;
    }
    if (meter.expired()) {
      truncated = true;
      break;
    }

    Mode mode = Mode::kFresh;
    if (!result.corpus.empty() && !rng.chance(kFreshWalkProb)) {
      mode = static_cast<Mode>(1 + rng.below(4));
    }
    make_guidance(mode, result.corpus, initial.processes(), rng, guidance);
    run_exec(initial, guidance, mode == Mode::kFresh, options, sym, rng,
             meter, coverage, exec);
    if (exec.truncated_by_budget) {
      // The partial execution is discarded entirely: no verdict and no
      // corpus entry may come from work the budget did not cover.
      truncated = true;
      break;
    }
    ++result.stats.executions;

    if (exec.new_coverage && result.corpus.size() < kMaxCorpus) {
      result.corpus.push_back(exec.path);
    }
    if (exec.kind) {
      ++result.stats.violations_found;
      ++result.violations_by_kind[*exec.kind];
      Violation v{*exec.kind, exec.path, exec.detail};
      result.first_by_kind.try_emplace(*exec.kind, v);
      if (!result.original_violation) {
        result.original_violation = std::move(v);
        result.stats.first_violation_exec = result.stats.executions - 1;
      }
      if (options.stop_at_first_violation) break;  // early stop: incomplete
      if (!options.stop_after_kinds.empty() &&
          std::all_of(options.stop_after_kinds.begin(),
                      options.stop_after_kinds.end(),
                      [&](ViolationKind k) {
                        return result.first_by_kind.contains(k);
                      })) {
        goal_met = true;
        break;
      }
    }
  }

  result.complete = goal_met && !truncated;
  result.stats.total_steps = meter.used();
  result.stats.corpus_entries = result.corpus.size();
  result.stats.unique_states = coverage.fingerprints.size();
  result.coverage = std::move(coverage.fingerprints);
  std::sort(result.coverage.begin(), result.coverage.end());

  if (result.original_violation) {
    result.stats.witness_steps_found =
        result.original_violation->schedule.size();
    result.violation = result.original_violation;
    if (options.shrink) {
      result.violation->schedule = shrink_witness(
          initial, result.original_violation->schedule,
          result.original_violation->kind, options.killed_is_violation);
    }
    result.stats.witness_steps_shrunk = result.violation->schedule.size();
  }
  result.rng_state = rng.state();
  return result;
}

std::optional<ViolationKind> classify_schedule(
    const SimWorld& initial, const std::vector<Choice>& schedule,
    bool killed_is_violation) {
  SimWorld world = initial;
  std::vector<std::vector<std::uint64_t>> encodes;
  encodes.reserve(schedule.size() + 1);
  encodes.push_back(world.encode());
  for (const Choice& c : schedule) {
    const auto enabled = world.enabled();
    if (std::find(enabled.begin(), enabled.end(), c) == enabled.end()) {
      return std::nullopt;  // not a legal schedule from this state
    }
    world.apply(c);
    encodes.push_back(world.encode());
  }
  if (world.terminal()) {
    ExploreOptions eo;
    eo.killed_is_violation = killed_is_violation;
    std::string detail;
    return detail::check_terminal(world, eo, detail);
  }
  if (schedule.empty()) return std::nullopt;
  const auto& final_state = encodes.back();
  for (std::size_t i = 0; i + 1 < encodes.size(); ++i) {
    if (encodes[i] != final_state) continue;
    for (std::size_t k = i; k < schedule.size(); ++k) {
      if (schedule[k].pid != kAdversaryPid) {
        return ViolationKind::kNontermination;
      }
    }
    return std::nullopt;  // only adversary steps repeat: not a process cycle
  }
  return std::nullopt;
}

std::vector<Choice> shrink_witness(const SimWorld& initial,
                                   const std::vector<Choice>& schedule,
                                   ViolationKind kind,
                                   bool killed_is_violation) {
  const auto violates = [&](const std::vector<Choice>& s) {
    return classify_schedule(initial, s, killed_is_violation) == kind;
  };
  std::vector<Choice> cur = schedule;
  if (!violates(cur)) return cur;

  bool progress = true;
  while (progress) {
    progress = false;

    // Phase 1 — chunk removal to a fixpoint.  Largest chunks first for
    // fast progress; every successful removal restarts the scan, so at
    // the fixpoint NO contiguous chunk of ANY size is removable.
    bool removed = true;
    while (removed) {
      removed = false;
      for (std::size_t len = cur.size(); len >= 1 && !removed; --len) {
        for (std::size_t start = 0; start + len <= cur.size(); ++start) {
          std::vector<Choice> cand;
          cand.reserve(cur.size() - len);
          cand.insert(cand.end(), cur.begin(),
                      cur.begin() + static_cast<std::ptrdiff_t>(start));
          cand.insert(cand.end(),
                      cur.begin() + static_cast<std::ptrdiff_t>(start + len),
                      cur.end());
          if (violates(cand)) {
            cur = std::move(cand);
            removed = true;
            progress = true;
            break;
          }
        }
      }
    }

    // Phase 2 — per-step canonicalization: replace each choice by the
    // smallest enabled alternative (choice_key order: lower pid, clean
    // over faulty over crashing, lower variant) that preserves the
    // violation.
    SimWorld world = initial;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      std::vector<Choice> alternatives = world.enabled();
      std::sort(alternatives.begin(), alternatives.end(),
                [](const Choice& x, const Choice& y) {
                  return choice_key(x) < choice_key(y);
                });
      for (const Choice& alt : alternatives) {
        if (choice_key(alt) >= choice_key(cur[i])) break;
        std::vector<Choice> cand = cur;
        cand[i] = alt;
        if (violates(cand)) {
          cur = std::move(cand);
          progress = true;
          break;
        }
      }
      world.apply(cur[i]);
    }
  }
  return cur;
}

std::string FuzzResult::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.kv("complete", complete);

  w.key("stats").begin_object();
  w.kv("executions", stats.executions);
  w.kv("total_steps", stats.total_steps);
  w.kv("corpus_entries", stats.corpus_entries);
  w.kv("unique_states", stats.unique_states);
  w.kv("violations_found", stats.violations_found);
  w.key("first_violation_exec");
  if (stats.first_violation_exec) {
    w.value(*stats.first_violation_exec);
  } else {
    w.null();
  }
  w.kv("witness_steps_found", stats.witness_steps_found);
  w.kv("witness_steps_shrunk", stats.witness_steps_shrunk);
  w.end_object();

  w.key("violations_by_kind").begin_object();
  for (const auto& [kind, count] : violations_by_kind) {
    w.kv(to_string(kind), count);
  }
  w.end_object();

  const auto emit_violation = [&w](const Violation& v) {
    w.begin_object();
    w.kv("kind", to_string(v.kind));
    w.kv("detail", v.detail);
    w.kv("steps", static_cast<std::uint64_t>(v.schedule.size()));
    w.kv("schedule", v.schedule_string());
    w.end_object();
  };
  w.key("violation");
  if (violation) {
    emit_violation(*violation);
  } else {
    w.null();
  }
  w.key("original_violation");
  if (original_violation) {
    emit_violation(*original_violation);
  } else {
    w.null();
  }
  w.key("first_by_kind").begin_object();
  for (const auto& [kind, v] : first_by_kind) {
    w.key(to_string(kind));
    emit_violation(v);
  }
  w.end_object();

  w.key("corpus").begin_array();
  for (const auto& schedule : corpus) {
    w.begin_array();
    for (const Choice& c : schedule) w.value(c.to_string());
    w.end_array();
  }
  w.end_array();

  w.key("coverage").begin_array();
  for (const auto& [a, b] : coverage) w.value(hex_fingerprint(a, b));
  w.end_array();

  w.key("rng_state").begin_array();
  for (const std::uint64_t word : rng_state) w.value(word);
  w.end_array();

  w.end_object();
  return w.str();
}

}  // namespace ff::sched
