// B3 — model-checker throughput: states visited per second and state-space
// size across representative configurations of each protocol machine.
//
// This calibrates what "exhaustive" costs and explains where the
// hierarchy prober switches from proofs to stress evidence.
//
// Every registry-backed run is described as a verify::JobSpec and
// executed through verify::instantiate()/execute() — the bench never
// builds ExploreOptions for them by hand.  Two references are exempt by
// design: the retired hand-written machines (tests/legacy/) and the
// reference explorer below are not registry protocols, so a JobSpec
// cannot name them; they stay raw worlds.
//
// Modes:
//   (default)        google-benchmark suite (all BM_* below)
//   --json <path>    write a machine-readable BENCH_B3.json report:
//                    states/sec and peak state counts for the reduced
//                    (symmetry) and unreduced explorers on a symmetric
//                    reference instance and for the unreduced explorer
//                    on a hot-path instance, plus reduction_factor,
//                    census_states_match (the DFS census against an
//                    independent reference explorer, gated),
//                    ir_overhead (random-walk steps/sec of the
//                    ffgen-GENERATED machines machine_factory selects vs
//                    the retired hand-written machines, paired median,
//                    gated at <= 0.02, min/max beside it),
//                    interpreter_overhead (IrMachine oracle,
//                    informational),
//                    codegen_census_match (generated == interpreted
//                    census for every registry protocol, gated) and the
//                    A2 immunity-pruning parity and prune factor.
//   --smoke          smaller reference instance for CI gating
//                    (scripts/check.sh stage 7 / scripts/bench_gate.py).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "legacy/machines.hpp"
#include "proto/registry.hpp"
#include "sched/explore_common.hpp"
#include "sched/explorer.hpp"
#include "sched/random_walk.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "verify/run.hpp"

namespace {

using namespace ff;

std::vector<std::uint64_t> inputs(std::uint32_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

/// Full-space staged job: the common base every reference instance below
/// specializes.  stop_at_first_violation = false is the bench-wide rule —
/// throughput is defined over the whole reachable graph, so the state cap
/// is raised above the full report's ~10.1M-state unreduced instance
/// (JobSpec's default 4M cap would truncate it).
verify::JobSpec staged_spec(std::uint64_t f, std::uint32_t t,
                            std::uint32_t n) {
  verify::JobSpec spec;
  spec.protocol = "staged";
  spec.params = {{"f", f}, {"t", t}};
  spec.t = t;
  spec.processes = n;
  spec.stop_at_first_violation = false;
  spec.max_states = 20'000'000;
  return spec;
}

/// Reduction-free variant (the raw-engine regime most sections measure).
verify::JobSpec unreduced(verify::JobSpec spec) {
  spec.symmetry_reduction = false;
  return spec;
}

void run_explore(benchmark::State& state, const verify::JobSpec& spec) {
  const verify::Instance instance = verify::instantiate(spec);
  std::uint64_t states = 0;
  for (auto _ : state) {
    const verify::Report report = verify::execute(instance);
    states = report.states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_ExploreHerlihy(benchmark::State& state) {
  verify::JobSpec spec;
  spec.protocol = "single-cas";
  spec.processes = static_cast<std::uint32_t>(state.range(0));
  spec.stop_at_first_violation = false;
  run_explore(state, spec);
}
BENCHMARK(BM_ExploreHerlihy)->DenseRange(2, 5);

void BM_ExploreFPlusOne(benchmark::State& state) {
  const auto f = static_cast<std::uint64_t>(state.range(0));
  verify::JobSpec spec;
  spec.protocol = "f-plus-one";
  spec.params = {{"k", f + 1}};
  spec.t = model::kUnbounded;
  spec.processes = 3;
  spec.stop_at_first_violation = false;
  run_explore(state, spec);
}
BENCHMARK(BM_ExploreFPlusOne)->DenseRange(1, 2);

void BM_ExploreStaged(benchmark::State& state) {
  run_explore(state,
              staged_spec(1, static_cast<std::uint32_t>(state.range(0)), 2));
}
BENCHMARK(BM_ExploreStaged)->DenseRange(1, 3)->Unit(benchmark::kMillisecond);

void BM_ExploreStagedTwoObjects(benchmark::State& state) {
  run_explore(state, staged_spec(2, 1, 2));
}
BENCHMARK(BM_ExploreStagedTwoObjects)->Unit(benchmark::kMillisecond);

void BM_ExploreMillionSequential(benchmark::State& state) {
  run_explore(state, staged_spec(1, 2, 3));
}
BENCHMARK(BM_ExploreMillionSequential)->Unit(benchmark::kMillisecond);

void BM_SimWorldStepApply(benchmark::State& state) {
  // Cost of one simulated step (clone-free path): drive a solo staged
  // run repeatedly.
  verify::JobSpec spec = staged_spec(2, 2, 1);
  const verify::Instance instance = verify::instantiate(spec);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    sched::SimWorld world = instance.world();
    while (!world.terminal()) world.apply({0, false, 0});
    steps += world.total_steps();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SimWorldStepApply);

void BM_SimWorldClone(benchmark::State& state) {
  // Cost of the snapshot the DFS takes per expanded state.
  verify::JobSpec spec = staged_spec(3, 2, 4);
  const verify::Instance instance = verify::instantiate(spec);
  const sched::SimWorld world = instance.world();
  for (auto _ : state) {
    sched::SimWorld copy = world;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_SimWorldClone);

// --- JSON report mode ------------------------------------------------------

/// An independent reference explorer, the gated census_states_match
/// compares the real explorer's state count against: per-child full
/// world copy + apply, a full world.encode() per generated child (and
/// again per frame pop), its own dual-SplitMix64 fingerprint fold,
/// node-based unordered containers for the visited set and the on-path
/// cycle map, per-frame choice vectors — no flat table, no incremental
/// encoding, no in-place stepping, no arenas, no reductions.  It runs the
/// same census, terminal checks and back-edge cycle detection.
sched::detail::Fingerprint legacy_fingerprint(
    const std::vector<std::uint64_t>& encoded) {
  sched::detail::Fingerprint fp{0x243f6a8885a308d3ULL,
                                0x13198a2e03707344ULL};
  for (const std::uint64_t w : encoded) {
    fp.a = util::mix64(fp.a ^ w);
    fp.b = util::mix64(fp.b + w + 0xa5a5a5a5a5a5a5a5ULL);
  }
  return fp;
}

std::uint64_t legacy_explore_count(const sched::SimWorld& initial) {
  struct Frame {
    sched::SimWorld world;
    std::vector<sched::Choice> choices;
    std::size_t next = 0;
  };
  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  std::uint64_t violations = 0;
  std::unordered_set<sched::detail::Fingerprint,
                     sched::detail::FingerprintHash>
      visited;
  std::unordered_map<sched::detail::Fingerprint, std::uint64_t,
                     sched::detail::FingerprintHash>
      on_path;
  std::vector<Frame> stack;
  std::vector<sched::Choice> path;
  const auto root_fp = legacy_fingerprint(initial.encode());
  visited.insert(root_fp);
  on_path.emplace(root_fp, 0);
  stack.push_back(Frame{initial, initial.enabled(), 0});
  std::uint64_t states = 1;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.choices.size()) {
      on_path.erase(legacy_fingerprint(frame.world.encode()));
      stack.pop_back();
      if (!path.empty()) path.pop_back();
      continue;
    }
    const sched::Choice choice = frame.choices[frame.next++];
    sched::SimWorld child = frame.world;
    child.apply(choice);
    const auto fp = legacy_fingerprint(child.encode());
    path.push_back(choice);
    if (const auto it = on_path.find(fp); it != on_path.end()) {
      // Back-edge: nontermination if a process steps in the segment.
      for (std::size_t i = it->second; i < path.size(); ++i) {
        if (path[i].pid != sched::kAdversaryPid) {
          ++violations;
          break;
        }
      }
      path.pop_back();
      continue;
    }
    if (visited.contains(fp)) {
      path.pop_back();
      continue;
    }
    visited.insert(fp);
    ++states;
    if (child.terminal()) {
      std::string detail;
      if (sched::detail::check_terminal(child, options, detail)) {
        ++violations;
      }
      path.pop_back();
      continue;
    }
    auto choices = child.enabled();
    on_path.emplace(fp, path.size());
    stack.push_back(Frame{std::move(child), std::move(choices), 0});
  }
  benchmark::DoNotOptimize(violations);
  return states;
}

/// Symmetric reference job: staged consensus (pid-oblivious) at n
/// processes with EQUAL inputs, one object, overriding faults.  Equal
/// inputs matter: with distinct inputs every process block stays
/// distinguishable and orbits are trivial, while equal inputs let the
/// canonical block sort collapse runs that differ only by which process
/// took which role — the regime the reduction targets.
verify::JobSpec symmetric_reference(std::uint32_t t, std::uint32_t n) {
  verify::JobSpec spec = staged_spec(1, t, n);
  spec.equal_inputs = true;
  return spec;
}

/// Hot-path reference job: staged f=1 t=2 at n=3 DISTINCT inputs —
/// ~1.37M distinct states with trivial orbits, so it isolates the raw
/// sequential engine (flat table, incremental encoding, in-place
/// stepping) from the reductions.  machine_factory() selects the
/// ffgen-generated machine here (staged f=1 t=2 is in the generation
/// grid), so this job measures the generated path; flipping
/// `interpreted` puts the SAME job on the IrMachine oracle.
verify::JobSpec hotpath_reference() {
  return unreduced(staged_spec(1, 2, 3));
}

/// The SAME hot-path instance driven by the retired hand-written staged
/// machine (tests/legacy/) — the baseline the ir_overhead figure divides
/// against.  Not a registry protocol, hence not a JobSpec: the raw world
/// and ExploreOptions here are the documented exception.
sched::SimWorld handwritten_hotpath_reference() {
  sched::SimConfig config;
  config.num_objects = 1;
  config.kind = model::FaultKind::kOverriding;
  config.t = 2;
  static const consensus::StagedFactory factory(1, 2);
  return sched::SimWorld(config, factory, inputs(3));
}

struct TimedExplore {
  verify::Report report;
  double seconds = 0;
};

TimedExplore timed_execute(const verify::Instance& instance) {
  TimedExplore out;
  out.report = verify::execute(instance);
  out.seconds = static_cast<double>(out.report.engine_micros) * 1e-6;
  return out;
}

/// Paired rounds of the machine-overhead measurement, and timed
/// campaigns per machine within a round (the fastest one counts).
constexpr int kOverheadRounds = 15;
constexpr int kOverheadReps = 5;
/// Random walks per timed campaign (about 15 ms of stepping each).
constexpr std::uint64_t kOverheadWalks = 4'000;

struct TimedWalks {
  std::uint64_t steps = 0;
  double seconds = 0;
};

/// One random-walk campaign from fixed seeds (sched/random_walk.hpp):
/// every step runs the world's StepMachines, which is what the overhead
/// rounds time.
TimedWalks timed_walks(const sched::SimWorld& world) {
  sched::WalkOptions options;
  options.seed = 1;
  TimedWalks out;
  const auto start = std::chrono::steady_clock::now();
  const sched::WalkCampaignReport report =
      sched::run_walk_campaign(world, kOverheadWalks, options);
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.steps = static_cast<std::uint64_t>(report.steps.sum());
  return out;
}

void emit_section(util::JsonWriter& w, std::string_view name,
                  std::uint64_t states, double seconds,
                  std::uint64_t max_depth) {
  w.key(name).begin_object();
  w.kv("peak_states", states);
  w.kv("seconds", seconds);
  w.kv("states_per_sec", seconds > 0 ? static_cast<double>(states) / seconds
                                     : 0.0);
  w.kv("max_depth", max_depth);
  w.end_object();
}

void emit_walks(util::JsonWriter& w, std::string_view name,
                const TimedWalks& walks) {
  w.key(name).begin_object();
  w.kv("walks", kOverheadWalks);
  w.kv("steps", walks.steps);
  w.kv("seconds", walks.seconds);
  w.kv("steps_per_sec", walks.seconds > 0 ? static_cast<double>(walks.steps) /
                                                walks.seconds
                                          : 0.0);
  w.end_object();
}

int write_report(const std::string& path, bool smoke) {
  // Symmetric instance: staged t=1 n=4 (~136k unreduced states) for the
  // smoke gate, staged t=2 n=4 (~10.1M unreduced states) for the full
  // report.  Equal inputs — see symmetric_reference().
  const std::uint32_t sym_t = smoke ? 1 : 2;
  const std::uint32_t sym_n = 4;
  const verify::JobSpec sym_spec = symmetric_reference(sym_t, sym_n);

  const TimedExplore reduced = timed_execute(verify::instantiate(sym_spec));
  const TimedExplore unreduced_run =
      timed_execute(verify::instantiate(unreduced(sym_spec)));

  const double reduction_factor =
      reduced.report.states_visited > 0
          ? static_cast<double>(unreduced_run.report.states_visited) /
                static_cast<double>(reduced.report.states_visited)
          : 0.0;

  // Hot-path instance (reductions OFF throughout): the engine and the
  // reference count.
  const verify::JobSpec hot_spec = hotpath_reference();
  const verify::Instance hot_instance = verify::instantiate(hot_spec);
  const TimedExplore hot = timed_execute(hot_instance);

  const std::uint64_t legacy_states =
      legacy_explore_count(hot_instance.world());

  const auto rate = [](std::uint64_t states, double seconds) {
    return seconds > 0 ? static_cast<double>(states) / seconds : 0.0;
  };

  // Machine overhead on the identical instance, three ways: the
  // ffgen-GENERATED machine (what machine_factory selects and what
  // ir_overhead gates at <= 0.02), the IrMachine INTERPRETER (the
  // differential oracle, informational interpreter_overhead), and the
  // retired HAND-WRITTEN machine as the baseline denominator.  The
  // exhaustive engines step memoized lanes and run a machine only on a
  // memo miss (under 1% of their steps), so an explore would time the
  // engine, not the machine.  The rounds time random-walk campaigns
  // instead: SimWorld steps a StepMachine on every transition, and from
  // the same seeds machines that behave alike walk the same schedules
  // step for step.  Each round runs the three sides interleaved and
  // takes the PAIRED rate ratio within the round, and the reported
  // overhead is the MEDIAN of the per-round ratios (min and max beside
  // it): slow machine-wide drift (thermal throttling, co-tenant load)
  // hits both sides of a pair equally, and the median discards the
  // rounds a scheduler hiccup poisoned — a 2% gate needs a statistic
  // whose run-to-run spread is well under 2%.
  verify::JobSpec interpreted_spec = hot_spec;
  interpreted_spec.interpreted = true;
  const verify::Instance interpreted_instance =
      verify::instantiate(interpreted_spec);
  const sched::SimWorld generated_world = hot_instance.world();
  const sched::SimWorld interpreted_world = interpreted_instance.world();
  const sched::SimWorld handwritten_world = handwritten_hotpath_reference();
  TimedWalks generated_best;
  TimedWalks interpreted_best;
  TimedWalks handwritten_best;
  const auto keep_best = [](TimedWalks& best, const TimedWalks& run) {
    if (best.seconds == 0 || run.seconds < best.seconds) best = run;
  };
  std::vector<double> generated_ratios;
  std::vector<double> interpreted_ratios;
  for (int i = 0; i < kOverheadRounds; ++i) {
    // Within a round the sides alternate campaign by campaign and each
    // keeps its fastest: a preempted campaign only ever reads slow.
    TimedWalks generated_run;
    TimedWalks interpreted_run;
    TimedWalks handwritten_run;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
      keep_best(generated_run, timed_walks(generated_world));
      keep_best(interpreted_run, timed_walks(interpreted_world));
      keep_best(handwritten_run, timed_walks(handwritten_world));
    }
    const double handwritten_run_rate =
        rate(handwritten_run.steps, handwritten_run.seconds);
    const double generated_run_rate =
        rate(generated_run.steps, generated_run.seconds);
    const double interpreted_run_rate =
        rate(interpreted_run.steps, interpreted_run.seconds);
    if (generated_run_rate > 0) {
      generated_ratios.push_back(handwritten_run_rate / generated_run_rate);
    }
    if (interpreted_run_rate > 0) {
      interpreted_ratios.push_back(handwritten_run_rate /
                                   interpreted_run_rate);
    }
    keep_best(generated_best, generated_run);
    keep_best(interpreted_best, interpreted_run);
    keep_best(handwritten_best, handwritten_run);
  }
  const auto median = [](std::vector<double> v) {
    if (v.empty()) return 2.0;  // no valid round: fail the gate loudly
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  };
  const double ir_overhead = median(generated_ratios) - 1.0;
  const double interpreter_overhead = median(interpreted_ratios) - 1.0;
  const auto [ratio_lo, ratio_hi] =
      std::minmax_element(generated_ratios.begin(), generated_ratios.end());
  const double ir_overhead_min =
      generated_ratios.empty() ? 1.0 : *ratio_lo - 1.0;
  const double ir_overhead_max =
      generated_ratios.empty() ? 1.0 : *ratio_hi - 1.0;

  // The interpreter and the hand-written machines explore the identical
  // state graph (one untimed search each).
  sched::ExploreOptions handwritten_opts;
  handwritten_opts.stop_at_first_violation = false;
  handwritten_opts.symmetry_reduction = false;
  const verify::Report interpreted_census =
      verify::execute(interpreted_instance);
  const sched::ExploreResult handwritten_census =
      sched::explore(handwritten_world, handwritten_opts);
  const bool ir_census_match =
      interpreted_census.states_visited == handwritten_census.states_visited &&
      interpreted_census.terminal_states ==
          handwritten_census.terminal_states &&
      interpreted_census.agreed_values == handwritten_census.agreed_values;

  // Generated-vs-interpreter census equality over EVERY simulable
  // registry protocol at default parameters (small instance: n=2, t=1,
  // crash budget 1 where the protocol has a recovery entry).  This is
  // the report-level restatement of test_codegen's grid — gated by
  // scripts/bench_gate.py so a drifted generated tree cannot ship a
  // green benchmark report.  Each side is one JobSpec; they differ only
  // in the `interpreted` exec choice.
  bool codegen_census_match = true;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    verify::JobSpec spec;
    spec.protocol = info.name;
    spec.processes = 2;
    spec.stop_at_first_violation = false;
    spec.symmetry_reduction = false;
    if (proto::build_program(info.name)->has_recovery()) {
      spec.crash_budget = 1;
    }
    verify::JobSpec oracle_spec = spec;
    oracle_spec.interpreted = true;
    const verify::Report generated_census =
        verify::execute(verify::instantiate(spec));
    const verify::Report oracle_census =
        verify::execute(verify::instantiate(oracle_spec));
    codegen_census_match = codegen_census_match &&
                           census_equal(generated_census, oracle_census);
  }

  // A2 immunity-pruning differential (ffcheck, DESIGN.md §3h): for every
  // simulable registry protocol, the census with proved-immune overriding
  // branches skipped must be bit-equal to the brute-force census, and the
  // sweep's prune factor (checks+skips)/checks is gated >= 1.0 — the
  // analyzer never makes exploration do more work, and exceeds 1 whenever
  // some protocol proved an object immune (tas does).
  bool immune_census_match = true;
  std::uint64_t immune_checks = 0;
  std::uint64_t immune_skips = 0;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    verify::JobSpec spec;
    spec.protocol = info.name;
    spec.processes = 2;
    spec.stop_at_first_violation = false;
    spec.symmetry_reduction = false;
    if (proto::build_program(info.name)->has_recovery()) {
      spec.crash_budget = 1;
    }
    verify::JobSpec brute_spec = spec;
    brute_spec.immunity_pruning = false;
    const verify::Report pruned = verify::execute(verify::instantiate(spec));
    const verify::Report brute =
        verify::execute(verify::instantiate(brute_spec));
    immune_census_match = immune_census_match && census_equal(pruned, brute);
    immune_checks += pruned.immunity_checks;
    immune_skips += pruned.immunity_skips;
  }
  const double immune_prune_factor =
      immune_checks + immune_skips == 0
          ? 1.0
          : static_cast<double>(immune_checks + immune_skips) /
                static_cast<double>(
                    std::max<std::uint64_t>(1, immune_checks));

  util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "B3");
  w.kv("smoke", smoke);
  w.key("symmetric_instance").begin_object();
  w.kv("protocol", "staged");
  w.kv("processes", std::uint64_t{sym_n});
  w.kv("inputs", "equal");
  w.kv("fault_kind", "overriding");
  w.kv("t", std::uint64_t{sym_t});
  w.end_object();
  emit_section(w, "reduced", reduced.report.states_visited, reduced.seconds,
               reduced.report.max_depth);
  emit_section(w, "unreduced", unreduced_run.report.states_visited,
               unreduced_run.seconds, unreduced_run.report.max_depth);
  w.kv("reduction_factor", reduction_factor);
  w.key("hotpath_instance").begin_object();
  w.kv("protocol", "staged");
  w.kv("processes", std::uint64_t{3});
  w.kv("inputs", "distinct");
  w.kv("fault_kind", "overriding");
  w.kv("t", std::uint64_t{2});
  w.end_object();
  emit_section(w, "hotpath_unreduced", hot.report.states_visited,
               hot.seconds, hot.report.max_depth);
  // The overhead rounds' fastest campaign per machine (random walks,
  // steps summed over the campaign's walks).
  emit_walks(w, "generated_machines", generated_best);
  emit_walks(w, "interpreted_machines", interpreted_best);
  emit_walks(w, "handwritten_machines", handwritten_best);
  // Fractional slowdown of what machine_factory actually selects — the
  // ffgen-GENERATED machine — vs the hand-written machines (0.05 = 5%
  // slower; negative = generated faster), as the median of the paired
  // random-walk rounds.  Gated at <= 0.02 by scripts/bench_gate.py:
  // straight-line codegen owes native speed.  The rounds' extremes are
  // reported beside it, not gated.
  w.kv("ir_overhead", ir_overhead);
  w.kv("ir_overhead_min", ir_overhead_min);
  w.kv("ir_overhead_max", ir_overhead_max);
  // The interpreter's overhead on the same instance (informational —
  // the oracle only has to be correct, not fast).
  w.kv("interpreter_overhead", interpreter_overhead);
  w.kv("ir_census_match", ir_census_match);
  // Generated == interpreted census for every simulable registry
  // protocol (gated).
  w.kv("codegen_census_match", codegen_census_match);
  // A2 immunity pruning: census parity with pruning on vs off (gated),
  // and the branch-condition prune factor across the registry sweep
  // (gated >= 1.0; > 1 means proved-immune objects skipped real work).
  w.kv("immune_census_match", immune_census_match);
  w.kv("immune_prune_factor", immune_prune_factor);
  w.kv("immune_checks", immune_checks);
  w.kv("immune_skips", immune_skips);
  // Sanity invariants the gate can assert without re-deriving them.
  w.kv("census_states_match", hot.report.states_visited == legacy_states);
  w.end_object();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << w.str() << "\n";
  std::cout << "B3: reduction_factor=" << reduction_factor
            << " ir_overhead=" << ir_overhead << " (min " << ir_overhead_min
            << ", max " << ir_overhead_max << " over " << kOverheadRounds
            << " paired rounds)"
            << " interpreter_overhead=" << interpreter_overhead
            << " codegen_census_match=" << codegen_census_match
            << " immune_prune_factor=" << immune_prune_factor
            << " immune_census_match=" << immune_census_match << " -> "
            << path << "\n";
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
