// fault_explorer — interactive front-end to the exhaustive model checker.
//
// Pick a protocol, a fault kind and an (f, t, n) configuration; the tool
// explores EVERY schedule and fault placement and reports either a proof
// of correctness or a concrete violating execution, replayed step by step.
//
// Every run is described by a verify::JobSpec and executed through
// verify::run() — the same canonical job layer the benches, the
// differential tests and the future ffd daemon use — so a run is
// hashable: pass --cache-dir and an identical job is answered from the
// persistent census cache instead of re-explored (DESIGN.md §3j).
//
//   $ ./fault_explorer --list-protocols
//   $ ./fault_explorer --protocol staged --f 1 --t 1 --n 3 --kind overriding
//   $ ./fault_explorer --protocol herlihy --n 2 --kind silent --t 1
//   $ ./fault_explorer --protocol staged --t 2 --n 3 --cache-dir ~/.ffcache
//   $ ./fault_explorer cache stats --cache-dir ~/.ffcache
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "proto/analysis/analysis.hpp"
#include "proto/registry.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "verify/cache.hpp"
#include "verify/run.hpp"

namespace {

using namespace ff;

void print_protocols() {
  std::cout << "registered protocols (canonical name [aliases] — summary):\n";
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    std::cout << "  " << info.name;
    for (const auto& alias : info.aliases) std::cout << " | " << alias;
    if (!info.simulable) std::cout << "  [queue client — not simulable]";
    std::cout << "\n      " << info.summary << '\n';
    for (const auto& param : info.params) {
      std::cout << "      param " << param.name << " (default "
                << param.fallback << "): " << param.help << '\n';
    }
  }
}

void print_usage() {
  std::cout <<
      "usage: fault_explorer [options]\n"
      "       fault_explorer cache stats|gc|invalidate <protocol> "
      "--cache-dir <dir>\n"
      "  --list-protocols  print the protocol registry and exit\n"
      "  --protocol  a registry name or alias, e.g. single-cas | herlihy |\n"
      "              fp1 | staged | retry-silent | announce-cas | tas |\n"
      "              recoverable-cas | recoverable-staged    (default staged)\n"
      "  --kind      overriding | silent | invisible | arbitrary |\n"
      "              nonresponsive | data | none              (default overriding)\n"
      "  --f         faulty-object bound / staged object count (default 1)\n"
      "  --t         faults per object, 0 = unbounded          (default 1)\n"
      "  --n         processes                                 (default 2)\n"
      "  --objects   object count for fp1                      (default f+1)\n"
      "  --state-cap explorer state limit                      (default 4e6)\n"
      "  --engine    dfs | parallel | frontier | fuzz | stress (default dfs;\n"
      "              --threads > 0 without --engine implies parallel).\n"
      "              frontier = batched owner-computes BFS wavefront engine\n"
      "              (DESIGN.md §3i)\n"
      "  --threads   worker threads for parallel/frontier;\n"
      "              0 = one per hardware thread                (default 0)\n"
      "  --spill-dir frontier only: directory for sorted census spill runs\n"
      "              (witnesses are reconstructed back through the runs)\n"
      "  --mem-limit-mb  frontier only: in-memory watermark in MiB over the\n"
      "              spillable census; exceeded ⇒ spill to --spill-dir\n"
      "              (0 = never spill)                          (default 0)\n"
      "  --no-symmetry    disable process-symmetry reduction (explore one\n"
      "              state per permutation orbit — DESIGN.md §3d);\n"
      "              also disables the fuzzer's canonical novelty signal\n"
      "  --analyze   print the ffcheck analysis report (footprints,\n"
      "              overriding-immunity, loop bounds, recovery proof)\n"
      "              for --protocol and exit; nonzero if violated\n"
      "  --no-immunity-pruning  disable skipping overriding-fault branches\n"
      "              on objects the analyzer proved immune (A2); the\n"
      "              census is identical either way — this flag exists\n"
      "              for differential testing and prune-factor baselines\n"
      "  --crashes   enable process crash-recovery branches (budget 1);\n"
      "              only protocols with a recovery label (recoverable-cas,\n"
      "              recoverable-staged) branch — others are unaffected\n"
      "  --crash-budget  max crashes per process (implies --crashes;\n"
      "              0 = crashes disabled)                     (default 0)\n"
      "  --fuzz      shorthand for --engine fuzz: coverage-guided schedule\n"
      "              fuzzing instead of exhaustive exploration; witnesses\n"
      "              are shrunk before printing\n"
      "  --seed      fuzz/stress seed                           (default 1)\n"
      "  --fuzz-steps  fuzzing budget in simulated steps, 0 = unlimited\n"
      "                                                    (default 2e6)\n"
      "  --fuzz-millis wall-clock budget in ms, 0 = none; a deadline makes\n"
      "              the job uncacheable                       (default 0)\n"
      "  --fuzz-execs  stop after this many executions, 0 = none\n"
      "  --trials    stress engine: real-thread trials          (default 100)\n"
      "  --cache-dir persistent census cache directory: an identical job\n"
      "              (same canonical spec AND same protocol IR) is answered\n"
      "              from disk with zero states expanded\n"
      "  --no-cache  bypass the cache even when --cache-dir is set\n"
      "  --json      write the run summary (canonical job, fingerprint,\n"
      "              cache_hit, full verify::Report) as JSON to this path\n"
      "cache subcommand (requires --cache-dir):\n"
      "  cache stats                 entry/byte/unreadable counts\n"
      "  cache gc                    evict corrupt or stale-version entries\n"
      "  cache invalidate <protocol> evict one protocol's entries\n";
}

/// Replays a witness step by step, printing each operation and the
/// resulting object value (shared by the explorer and fuzzer verdicts).
void print_witness_replay(const sched::SimWorld& world,
                          const sched::Violation& violation) {
  sched::SimWorld replayed = world;
  std::size_t step = 0;
  for (const auto& choice : violation.schedule) {
    if (choice.pid == sched::kAdversaryPid) {
      std::cout << "  " << ++step << ". adversary corrupts memory";
      replayed.apply(choice);
      std::cout << '\n';
      continue;
    }
    const auto op = replayed.pending(choice.pid);
    std::cout << "  " << ++step << ". p" << choice.pid;
    if (choice.crash) {
      // Crash branch: variant 1 = the op's effect lands, the response is
      // lost; variant 0 = the op never reaches shared memory.
      std::cout << " [CRASH " << (choice.fault_variant == 1 ? "after" : "before")
                << " op]";
    } else if (choice.fault) {
      std::cout << " [FAULT]";
    }
    switch (op.type) {
      case sched::OpType::kCas:
        std::cout << " CAS(O" << op.object << ", " << op.expected.to_string()
                  << ", " << op.desired.to_string() << ")";
        break;
      case sched::OpType::kRegRead:
        std::cout << " read R" << op.object;
        break;
      case sched::OpType::kRegWrite:
        std::cout << " R" << op.object << " <- " << op.desired.to_string();
        break;
      case sched::OpType::kNone:
        break;
    }
    replayed.apply(choice);
    if (op.type == sched::OpType::kCas) {
      std::cout << " -> O" << op.object << " = "
                << replayed.object_value(op.object).to_string();
    } else if (op.type == sched::OpType::kRegWrite) {
      std::cout << " -> R" << op.object << " = "
                << replayed.register_value(op.object).to_string();
    }
    if (choice.crash) {
      std::cout << "; p" << choice.pid << " restarts at recover ("
                << replayed.crashes_used(choice.pid) << " crash"
                << (replayed.crashes_used(choice.pid) == 1 ? "" : "es")
                << " used)";
    }
    std::cout << '\n';
  }
  std::cout << "final decisions:\n";
  const auto decisions = replayed.decisions();
  for (std::uint32_t pid = 0; pid < decisions.size(); ++pid) {
    std::cout << "  p" << pid << " -> "
              << (decisions[pid] ? std::to_string(*decisions[pid])
                                 : std::string("(undecided)"))
              << '\n';
  }
}

/// A misspelled or removed flag must not silently run a different job:
/// reports the first flag no reader asked for.  Call after every flag
/// the command knows has been read.
bool reject_unknown_flags(const util::Cli& cli) {
  const std::vector<std::string> unread = cli.unread();
  if (unread.empty()) return false;
  std::cerr << "unknown flag --" << unread.front()
            << " (see --help for the flags)\n";
  return true;
}

/// `fault_explorer cache stats|gc|invalidate <protocol> --cache-dir ...`.
int run_cache_command(const util::Cli& cli) {
  const auto& args = cli.positional();
  const std::string dir = cli.get_string("cache-dir", "");
  if (reject_unknown_flags(cli)) return 2;
  if (dir.empty()) {
    std::cerr << "cache subcommand requires --cache-dir\n";
    return 2;
  }
  const verify::Cache cache(dir);
  const std::string action = args.size() > 1 ? args[1] : "stats";
  if (action == "stats") {
    const auto stats = cache.stats();
    std::cout << "cache dir      : " << cache.dir() << '\n'
              << "entries        : " << stats.entries << '\n'
              << "bytes          : " << stats.bytes << '\n'
              << "unreadable     : " << stats.unreadable
              << (stats.unreadable > 0 ? "  (run `cache gc`)" : "") << '\n';
    return 0;
  }
  if (action == "gc") {
    std::cout << "evicted        : " << cache.gc()
              << " corrupt or stale-version entries\n";
    return 0;
  }
  if (action == "invalidate") {
    if (args.size() < 3) {
      std::cerr << "usage: fault_explorer cache invalidate <protocol> "
                   "--cache-dir <dir>\n";
      return 2;
    }
    std::cout << "evicted        : " << cache.invalidate(args[2])
              << " entries for protocol " << args[2] << '\n';
    return 0;
  }
  std::cerr << "unknown cache action: " << action
            << " (expected stats | gc | invalidate)\n";
  return 2;
}

/// Builds the canonical job from the CLI vocabulary.
verify::JobSpec spec_from_cli(const util::Cli& cli) {
  verify::JobSpec spec;
  spec.protocol = cli.get_string("protocol", "staged");
  const auto f = cli.get_uint("f", 1);
  const auto t_raw = static_cast<std::uint32_t>(cli.get_uint("t", 1));
  spec.t = t_raw == 0 ? model::kUnbounded : t_raw;
  spec.processes = static_cast<std::uint32_t>(cli.get_uint("n", 2));
  spec.kind =
      verify::fault_kind_from_string(cli.get_string("kind", "overriding"));
  // Map the explorer's CLI vocabulary onto the registry's parameter
  // schema; canonicalization drops keys a protocol's schema lacks.
  spec.params["f"] = f;
  spec.params["n"] = spec.processes;
  spec.params["t"] = spec.t == model::kUnbounded ? 1 : spec.t;
  spec.params["k"] = cli.get_uint("objects", f + 1);

  spec.crash_budget = static_cast<std::uint32_t>(
      cli.get_uint("crash-budget", cli.has("crashes") ? 1 : 0));
  spec.killed_is_violation = spec.kind == model::FaultKind::kNonresponsive;
  spec.symmetry_reduction = !cli.has("no-symmetry");
  spec.immunity_pruning = !cli.has("no-immunity-pruning");
  spec.max_states = cli.get_uint("state-cap", 4'000'000);

  spec.threads = static_cast<std::uint32_t>(cli.get_uint("threads", 0));
  // --threads > 0 without an explicit --engine keeps its historical
  // meaning: the work-stealing parallel DFS.  --fuzz is the historical
  // spelling of --engine fuzz.
  std::string engine =
      cli.get_string("engine", spec.threads > 0 ? "parallel" : "dfs");
  if (cli.has("fuzz")) engine = "fuzz";
  spec.engine = verify::engine_from_string(engine);
  spec.spill_dir = cli.get_string("spill-dir", "");
  spec.mem_limit_bytes =
      cli.get_uint("mem-limit-mb", 0) * (std::uint64_t{1} << 20);

  spec.seed = cli.get_uint("seed", 1);
  spec.fuzz_steps = cli.get_uint("fuzz-steps", 2'000'000);
  spec.fuzz_millis = cli.get_uint("fuzz-millis", 0);
  spec.fuzz_execs = cli.get_uint("fuzz-execs", 0);
  spec.trials = cli.get_uint("trials", 100);
  if (spec.engine == verify::Engine::kStress) {
    // The stress engine runs clean real-thread trials; validate() would
    // reject the simulator-only default kind with a confusing error.
    if (!cli.has("kind")) spec.kind = model::FaultKind::kNone;
  }

  // Historical behavior: a complete, violation-free exhaustive run also
  // reports the machine-checked wait-freedom bound.
  spec.wait_free_bound = spec.engine == verify::Engine::kDfs ||
                         spec.engine == verify::Engine::kParallel ||
                         spec.engine == verify::Engine::kFrontier;
  return spec;
}

void write_json_summary(const std::string& path, const verify::JobSpec& spec,
                        const verify::RunOutcome& outcome) {
  std::ofstream out(path);
  // The spec and report documents are already canonical JSON; splice
  // them verbatim instead of re-walking them through a writer.
  out << "{\"spec\":" << spec.canonical_json()
      << ",\"fingerprint\":\"" << outcome.fingerprint.hex()
      << "\",\"cache_hit\":" << (outcome.cache_hit ? "true" : "false")
      << ",\"fresh_states_expanded\":" << outcome.fresh_states_expanded
      << ",\"report\":" << outcome.report.to_json() << "}\n";
  std::cout << "json           : " << path << '\n';
}

int report_fuzz(const verify::JobSpec& spec,
                const verify::RunOutcome& outcome) {
  const verify::Report& report = outcome.report;
  const verify::FuzzSummary& fuzz = *report.fuzz;
  std::cout << "executions     : " << fuzz.executions << '\n'
            << "steps          : " << fuzz.total_steps << '\n'
            << "unique states  : " << fuzz.unique_states << '\n'
            << "corpus         : " << fuzz.corpus_entries << " schedules\n"
            << "coverage       : "
            << (report.complete ? "requested work finished"
                                : "budget exhausted or stopped early")
            << '\n';
  if (!report.violation) {
    std::cout << "verdict        : no violation found (sampling — NOT a "
                 "proof of correctness)\n";
    return 0;
  }
  std::cout << "verdict        : VIOLATION ("
            << sched::to_string(report.violation->kind) << ")\n"
            << "detail         : " << report.violation->detail << '\n'
            << "found at exec  : " << fuzz.first_violation_exec.value_or(0)
            << '\n'
            << "witness        : " << report.violation->schedule_string()
            << "\n  (shrunk from " << fuzz.witness_steps_found << " to "
            << fuzz.witness_steps_shrunk << " steps)\n\nreplaying witness:\n";
  print_witness_replay(verify::instantiate(spec).world(), *report.violation);
  return 1;
}

int report_stress(const verify::RunOutcome& outcome) {
  const verify::StressSummary& stress = *outcome.report.stress;
  std::cout << "trials         : " << stress.trials << '\n'
            << "ok             : " << stress.ok << '\n'
            << "inconsistent   : " << stress.inconsistent << '\n'
            << "invalid        : " << stress.invalid << '\n'
            << "undecided      : " << stress.undecided << '\n';
  if (stress.trials == stress.ok) {
    std::cout << "verdict        : every real-thread trial reached "
                 "consensus (sampling — NOT a proof)\n";
    return 0;
  }
  std::cout << "verdict        : VIOLATION (first at trial "
            << stress.first_violation.value_or(0) << ")\n";
  return 1;
}

int report_explore(const verify::JobSpec& spec,
                   const verify::RunOutcome& outcome) {
  const verify::Report& report = outcome.report;
  std::cout << "states visited : " << report.states_visited << '\n'
            << "terminal states: " << report.terminal_states << '\n'
            << "max depth      : " << report.max_depth << '\n'
            << "peak memory    : " << (report.peak_bytes >> 10) << " KiB\n"
            << "coverage       : "
            << (report.complete ? "COMPLETE (exhaustive proof)"
                                : "partial (cap hit or stopped early)")
            << '\n';
  if (report.frontier) {
    std::cout << "frontier       : waves=" << report.frontier->waves
              << " forwarded=" << report.frontier->forwarded
              << " memo_hits=" << report.frontier->memo_hits
              << " misses_stepped=" << report.frontier->batched_lanes
              << " lanes=" << report.frontier->arena_lanes << '\n';
    if (report.frontier->spill_runs > 0) {
      std::cout << "spill          : runs=" << report.frontier->spill_runs
                << " records=" << report.frontier->spilled_records
                << " bytes=" << report.frontier->spill_bytes << '\n';
    }
  }
  if (report.immunity_skips > 0) {
    std::cout << "A2 pruning     : " << report.immunity_skips
              << " overriding branches skipped via proved-immune objects ("
              << report.immunity_checks << " checked dynamically)\n";
  }

  if (!report.violation) {
    if (report.complete) {
      std::cout << "verdict        : no violation — consensus holds for "
                   "every schedule and fault placement explored\n";
    } else {
      std::cout << "verdict        : inconclusive: no violation in the "
                << report.states_visited
                << " states explored, but the search did not finish\n";
    }
    std::cout << "agreed values  : {";
    bool first = true;
    for (const auto v : report.agreed_values) {
      std::cout << (first ? "" : ", ") << v;
      first = false;
    }
    std::cout << "}\n";
    if (report.wait_free_bound) {
      std::cout << "wait-free bound: " << *report.wait_free_bound
                << " total steps in the worst schedule\n";
    }
    return 0;
  }

  std::cout << "verdict        : VIOLATION ("
            << sched::to_string(report.violation->kind) << ")\n"
            << "detail         : " << report.violation->detail << '\n'
            << "witness        : " << report.violation->schedule_string()
            << "\n\nreplaying witness:\n";
  print_witness_replay(verify::instantiate(spec).world(), *report.violation);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("help")) {
    print_usage();
    return 0;
  }
  if (cli.has("list-protocols")) {
    print_protocols();
    return 0;
  }
  if (!cli.positional().empty() && cli.positional()[0] == "cache") {
    return run_cache_command(cli);
  }

  verify::JobSpec spec;
  try {
    spec = spec_from_cli(cli);
    spec.validate();
  } catch (const std::invalid_argument& err) {
    std::cerr << err.what() << "\n\n";
    print_protocols();
    return 2;
  }

  const bool analyze = cli.has("analyze");
  const std::string cache_dir = cli.get_string("cache-dir", "");
  const bool no_cache = cli.has("no-cache");
  const std::string json_path = cli.get_string("json", "");
  if (reject_unknown_flags(cli)) return 2;

  if (analyze) {
    const auto instance = verify::instantiate(spec);
    const auto report = proto::analysis::analyze(*instance.program);
    std::cout << proto::analysis::render_human(report);
    return report.ok() ? 0 : 1;
  }

  std::optional<verify::Cache> cache;
  if (!cache_dir.empty() && !no_cache) cache.emplace(cache_dir);

  const verify::JobSpec canonical = spec.canonicalized();
  std::cout << (spec.engine == verify::Engine::kFuzz
                    ? "fuzzing"
                    : spec.engine == verify::Engine::kStress ? "stressing"
                                                             : "exploring")
            << ": protocol=" << canonical.protocol << " kind="
            << model::to_string(spec.kind) << " t="
            << (spec.t == model::kUnbounded ? std::string("inf")
                                            : std::to_string(spec.t))
            << " n=" << spec.processes << " engine="
            << verify::to_string(spec.engine);
  if (spec.engine == verify::Engine::kParallel ||
      spec.engine == verify::Engine::kFrontier) {
    std::cout << '('
              << (spec.threads > 0 ? std::to_string(spec.threads) + " threads"
                                   : std::string("hw threads"))
              << ')';
  }
  std::cout << "\n\n";

  const verify::RunOutcome outcome = verify::run(spec, cache ? &*cache : nullptr);
  if (cache) {
    std::cout << "cache          : "
              << (outcome.cache_hit
                      ? "HIT — report served from " + cache->dir() +
                            ", zero states expanded"
                      : "miss — result stored in " + cache->dir())
              << '\n';
  }

  if (!json_path.empty()) write_json_summary(json_path, spec, outcome);

  switch (spec.engine) {
    case verify::Engine::kFuzz: return report_fuzz(spec, outcome);
    case verify::Engine::kStress: return report_stress(outcome);
    default: return report_explore(spec, outcome);
  }
}
