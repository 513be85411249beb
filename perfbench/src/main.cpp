// perfbench — runs one workload through the public verify API and prints
// its metrics.  perfbench/run.py builds this program and forwards its
// arguments; README.md in this directory documents every metric.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// The run repeats rounds while another round fits in --seconds.  A round
// is one cold pass per engine, each from an empty cache directory; the
// engine order flips every round so drift hits every engine alike.
// Before each cold pass and after the last one the round takes a setup
// sample (job preparations) and a warm sample (warm passes answered by
// the caches the first round's cold passes filled), so the short samples
// are spread over the whole run.  A short sample times a batch on each
// CPU the process may use in turn, pinned to it: other tenants of a shared
// host slow single CPUs for tenths of a second at a time, so a round
// reports its fastest preparation and its fastest warm pass.  Every
// answer is checked (checks.hpp).  Timed metrics are medians over rounds.
//
// With --trace 1 the run alternates untraced rounds with traced ones, in
// which every call into a layer is wrapped in a span, and prints the
// per-layer metrics instead.  The last line of standard output is always
// the JSON result.
#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "checks.hpp"
#include "proto/registry.hpp"
#include "sample.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "verify/run.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ff::verify::Cache;
using ff::verify::Engine;
using ff::verify::JobSpec;
using ff::verify::Report;
using Clock = std::chrono::steady_clock;

/// Rounds a run makes at least, whatever --seconds says.
constexpr int kMinRounds = 3;
/// Rounds a traced run makes at least: untraced rounds 0, 2 and 4,
/// traced rounds 1 and 3.  Round 0 pays the process's cold start, so the
/// tracing overhead compares the traced rounds with rounds 2 and 4.
constexpr int kMinTracedRunRounds = 5;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The CPUs this process may run on; {-1} when the mask is unknown.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Pins the calling thread to one CPU (none for -1) until destroyed, then
/// gives it back its mask, which threads it starts later inherit.
class PinScope {
 public:
  explicit PinScope(int cpu) {
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinScope() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

struct Usage {
  double cpu_s = 0;
  double minor_faults = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6,
          static_cast<double>(ru.ru_minflt)};
}

/// Index of `e` in kEngines, which also indexes these span names.
std::size_t engine_index(Engine e) {
  return e == Engine::kDfs ? 0 : e == Engine::kFrontier ? 1 : 2;
}
constexpr const char* kPassSpan[] = {"pass.dfs", "pass.frontier", "pass.fuzz"};
constexpr const char* kEngineSpan[] = {"sched.dfs", "sched.frontier", "sched.fuzz"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  fs::path work_dir = ".bench_build/perfbench/work";
};

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument(flag + " needs a whole number, got '" + text +
                                "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = t == 1;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

/// Attempted, failed and wrong answers over the whole run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::set<std::string> notes;  ///< one line per failing (engine, job)

  void add(const Judgement& j, const std::string& where) {
    ++attempted;
    if (j.failed) {
      ++failed;
      notes.insert(where + ": " + j.why);
    }
    if (j.wrong) ++wrong;
  }
};

/// One answer to one job: the Report, or the exception the run threw.
struct Answer {
  std::optional<Report> report;
  bool cache_hit = false;
  std::string error;
};

/// Layer counters summed over the traced rounds.
struct Ledger {
  std::uint64_t rounds = 0;
  std::array<std::uint64_t, 3> states{};  ///< per engine index
  std::array<std::uint64_t, 3> peak_bytes{};
  std::uint64_t table_grows = 0;
  std::uint64_t immunity_checks = 0;
  std::uint64_t immunity_skips = 0;
  ff::sched::FrontierStats frontier;
  double frontier_wall_s = 0;
  double frontier_cpu_s = 0;
  std::uint64_t fuzz_steps = 0;
  std::uint64_t fuzz_corpus = 0;
  std::uint64_t fuzz_execs = 0;
  std::uint64_t witness_found = 0;
  std::uint64_t witness_shrunk = 0;
  /// Fuzz jobs that spent their whole budget: job -> (steps, seconds)
  /// of the last traced campaign.
  std::map<std::size_t, std::pair<std::uint64_t, double>> full_campaigns;
  std::uint64_t cold_passes = 0;
  Usage cold_usage;
  std::uint64_t warm_lookups = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t entry_bytes = 0;
  std::uint64_t entries = 0;
};

/// A round's caches, with the cold answers that filled them.
struct Filled {
  fs::path dir;
  std::vector<std::unique_ptr<Cache>> caches = std::vector<std::unique_ptr<Cache>>(3);
  std::array<std::vector<std::string>, 3> cold_json;  ///< empty: threw
  std::array<std::vector<Judgement>, 3> judged;
};

struct RoundTimes {
  std::array<double, 3> cold_s{};
  std::array<std::uint64_t, 3> peak_bytes{};
  std::vector<double> setup_s;  ///< per setup sample: its fastest preparation
  std::vector<double> warm_s;   ///< per warm sample: its fastest warm pass
};

/// The fastest of a round's samples.
double fastest(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

class Runner {
 public:
  Runner(Workload w, fs::path work_dir)
      : w_(std::move(w)), work_dir_(std::move(work_dir)), cpus_(allowed_cpus()) {}

  const Workload& workload() const { return w_; }
  Tally tally;
  Ledger ledger;
  Tracer tracer;

  /// Untimed first preparation; keeps the instances for sampling.
  void prepare() {
    for (const Job& job : w_.jobs) {
      instances_.push_back(ff::verify::instantiate(job.spec));
      worlds_.push_back(instances_.back().world());
    }
  }

  /// Runs `once` (which returns the seconds it timed) `per_cpu` times on
  /// each CPU the process may use, pinned to it; returns the fastest time.
  template <class F>
  double fastest_on_each_cpu(std::uint32_t per_cpu, F&& once) {
    double best = std::numeric_limits<double>::infinity();
    for (const int cpu : cpus_) {
      const PinScope pin(cpu);
      for (std::uint32_t k = 0; k < per_cpu; ++k) best = std::min(best, once());
    }
    return best;
  }

  /// One setup sample: preparations of every job; returns the fastest.
  /// Each preparation is freed after its clock stops.  Traced
  /// preparations also time the proto layer's calls one by one.
  double setup_sample(bool traced) {
    Tracer* tr = traced ? &tracer : nullptr;
    return fastest_on_each_cpu(w_.setup_batch, [&] {
      SpanScope root(tr, "setup");
      double took = 0;
      for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
        const JobSpec& spec = w_.jobs[j].spec;
        const auto job = static_cast<std::int64_t>(j);
        SpanScope span(tr, "setup.job", job);
        if (traced) time_proto_calls(spec, job);
        const auto start = Clock::now();
        ff::verify::Instance inst;
        std::optional<ff::sched::SimWorld> world;
        {
          SpanScope s(tr, "verify.instantiate", job);
          inst = ff::verify::instantiate(spec);
        }
        {
          SpanScope s(tr, "sched.sim_world", job);
          world.emplace(inst.world());
        }
        {
          SpanScope s(tr, "verify.fingerprint", job);
          sink_ += ff::verify::job_fingerprint(inst.spec).a;
        }
        took += since(start);
      }
      return took;
    });
  }

  RoundTimes round(int index, bool traced) {
    Tracer* tr = traced ? &tracer : nullptr;
    auto filled = std::make_unique<Filled>();
    filled->dir = work_dir_ / ("round-" + std::to_string(index));
    fs::remove_all(filled->dir);
    fs::create_directories(filled->dir);
    RoundTimes times;
    // cold[e][j]: the cold answer of job j on engine index e.
    std::array<std::vector<Answer>, 3> cold;
    const bool reverse = index % 2 == 1;
    for (std::size_t k = 0; k < 3; ++k) {
      short_samples(tr, times);
      const Engine e = kEngines[reverse ? 2 - k : k];
      const std::size_t ei = engine_index(e);
      filled->caches[ei] =
          std::make_unique<Cache>((filled->dir / std::string(to_string(e))).string());
      const Usage before = usage_now();
      times.cold_s[ei] = pass(e, *filled->caches[ei], tr, cold[ei]);
      if (traced) {
        const Usage after = usage_now();
        ledger.cold_usage.cpu_s += after.cpu_s - before.cpu_s;
        ledger.cold_usage.minor_faults += after.minor_faults - before.minor_faults;
        ++ledger.cold_passes;
      }
      for (const Answer& a : cold[ei]) {
        filled->cold_json[ei].push_back(a.report ? a.report->to_json() : std::string());
        if (a.report) {
          times.peak_bytes[ei] = std::max(times.peak_bytes[ei], a.report->peak_bytes);
        }
      }
    }

    // Judge the cold answers against the proof census and the DFS ones.
    for (const Engine e : kEngines) {
      const std::size_t ei = engine_index(e);
      for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
        const Answer& a = cold[ei][j];
        const Report* dfs = e == Engine::kDfs ? nullptr
                            : cold[0][j].report ? &*cold[0][j].report
                                                : nullptr;
        Judgement verdict;
        if (!a.report) {
          verdict.failed = true;
          verdict.why = "threw " + a.error;
        } else {
          verdict = judge(engine_spec(w_, j, e), *a.report, dfs, w_.jobs[j].census);
        }
        filled->judged[ei].push_back(verdict);
        tally.add(verdict, where(e, j));
      }
    }
    if (traced) record_counters(cold, filled->caches);

    // The first round's caches answer every warm pass of the run.
    if (warm_source_) {
      fs::remove_all(filled->dir);
    } else {
      warm_source_ = std::move(filled);
    }
    short_samples(tr, times);
    if (traced) ++ledger.rounds;
    return times;
  }

  /// A setup sample and, once the first round has filled the caches, a
  /// warm sample.  Rounds take them between their cold passes: the host's
  /// speed changes every few seconds, so samples of sub-millisecond calls
  /// must come from across the run to repeat between runs.
  void short_samples(Tracer* tr, RoundTimes& times) {
    times.setup_s.push_back(setup_sample(tr != nullptr));
    if (warm_source_) times.warm_s.push_back(warm_sample(tr, *warm_source_));
  }

  /// One warm sample: warm passes answered from `filled`; returns the
  /// fastest.
  double warm_sample(Tracer* tr, const Filled& filled) {
    const bool traced = tr != nullptr;
    return fastest_on_each_cpu(w_.warm_batch, [&] {
      SpanScope root(tr, "pass.warm");
      double took = 0;
      for (const Engine e : kEngines) {
        const std::size_t ei = engine_index(e);
        for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
          const JobSpec spec = engine_spec(w_, j, e);
          const auto start = Clock::now();
          Answer a = call(spec, *filled.caches[ei], tr, j);
          took += since(start);
          std::optional<std::string> json;
          if (a.report) {
            SpanScope s(tr, "verify.report_json", static_cast<std::int64_t>(j));
            json = a.report->to_json();
            sink_ += Report::parse(*json).states_visited;
          }
          if (traced) {
            ++ledger.warm_lookups;
            ledger.warm_hits += a.cache_hit ? 1 : 0;
          }
          tally.add(judge_warm(filled.judged[ei][j], filled.cold_json[ei][j],
                               json, a.cache_hit, a.error),
                    "warm " + where(e, j));
        }
      }
      return took;
    });
  }

  /// Times half-budget fuzz campaigns of the jobs whose traced campaign
  /// spent its whole budget; returns the step rate over the second half.
  double late_fuzz_rate() {
    double steps = 0;
    double seconds = 0;
    for (const auto& [j, full] : ledger.full_campaigns) {
      JobSpec spec = engine_spec(w_, j, Engine::kFuzz);
      spec.fuzz_steps = w_.fuzz_steps / 2;
      const ff::verify::Instance inst = ff::verify::instantiate(spec);
      (void)inst.factory->facts();
      const auto start = Clock::now();
      const Report half = ff::verify::execute(inst);
      const double took = since(start);
      steps += static_cast<double>(full.first) -
               static_cast<double>(half.fuzz->total_steps);
      seconds += full.second - took;
    }
    return seconds > 0 ? steps / seconds : 0.0;
  }

  SampleTimings sample_timings() {
    std::vector<bool> symmetric;
    for (const Job& job : w_.jobs) symmetric.push_back(job.spec.symmetry_reduction);
    return time_sample(draw_sample(worlds_, symmetric, w_.seed));
  }

  void cleanup() { fs::remove_all(work_dir_); }

 private:
  std::string where(Engine e, std::size_t j) const {
    return std::string(to_string(e)) + " " + w_.jobs[j].label;
  }

  void time_proto_calls(const JobSpec& spec, std::int64_t job) {
    ff::proto::Params params;
    for (const auto& [k, v] : spec.params) params.set(k, v);
    {
      SpanScope s(&tracer, "proto.build_program", job);
      sink_ += ff::proto::build_program(spec.protocol, params)->num_objects();
    }
    std::unique_ptr<ff::sched::MachineFactory> factory;
    {
      SpanScope s(&tracer, "proto.factory", job);
      factory = ff::proto::machine_factory(spec.protocol, params);
    }
    SpanScope s(&tracer, "proto.facts", job);
    sink_ += factory->facts() ? 1 : 0;
  }

  /// Runs every job once with engine `e`; returns the summed call time.
  double pass(Engine e, Cache& cache, Tracer* tr, std::vector<Answer>& out) {
    SpanScope root(tr, kPassSpan[engine_index(e)]);
    double total = 0;
    for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
      const JobSpec spec = engine_spec(w_, j, e);
      const auto start = Clock::now();
      out.push_back(call(spec, cache, tr, j));
      total += since(start);
    }
    return total;
  }

  /// verify::run, or — traced — the same steps through the layers' own
  /// public calls, each in a span.
  Answer call(const JobSpec& spec, Cache& cache, Tracer* tr, std::size_t j) {
    Answer a;
    try {
      if (tr == nullptr) {
        ff::verify::RunOutcome out = ff::verify::run(spec, &cache);
        a.report = std::move(out.report);
        a.cache_hit = out.cache_hit;
      } else {
        traced_run(spec, cache, j, a);
      }
    } catch (const std::exception& ex) {
      a.report.reset();
      a.error = ex.what();
    }
    return a;
  }

  void traced_run(const JobSpec& spec, Cache& cache, std::size_t j, Answer& a) {
    const auto job = static_cast<std::int64_t>(j);
    SpanScope run(&tracer, "verify.run", job);
    ff::verify::Instance inst;
    {
      SpanScope s(&tracer, "verify.instantiate", job);
      inst = ff::verify::instantiate(spec);
    }
    ff::verify::JobFingerprint fp;
    {
      SpanScope s(&tracer, "verify.fingerprint", job);
      fp = ff::verify::job_fingerprint(inst.spec);
    }
    if (inst.spec.cacheable()) {
      std::optional<Cache::Entry> entry;
      {
        SpanScope s(&tracer, "verify.cache_load", job);
        entry = cache.load(fp);
      }
      if (entry && entry->program_fingerprint == inst.program_fingerprint) {
        a.report = std::move(entry->report);
        a.cache_hit = true;
        return;
      }
    }
    {
      SpanScope s(&tracer, "proto.facts", job);
      sink_ += inst.factory->facts() ? 1 : 0;
    }
    const Engine e = inst.spec.engine;
    const double cpu_before = process_cpu_seconds();
    const auto start = Clock::now();
    {
      SpanScope s(&tracer, kEngineSpan[engine_index(e)], job);
      a.report = ff::verify::execute(inst);
    }
    const double took = since(start);
    if (e == Engine::kFrontier) {
      ledger.frontier_wall_s += took;
      ledger.frontier_cpu_s += process_cpu_seconds() - cpu_before;
    } else if (e == Engine::kFuzz && a.report->fuzz &&
               a.report->fuzz->total_steps >= inst.spec.fuzz_steps) {
      ledger.full_campaigns[j] = {a.report->fuzz->total_steps, took};
    }
    if (inst.spec.cacheable()) {
      SpanScope s(&tracer, "verify.cache_store", job);
      cache.store(fp, inst.spec, inst.program_fingerprint, *a.report);
    }
  }

  void record_counters(const std::array<std::vector<Answer>, 3>& cold,
                       const std::vector<std::unique_ptr<Cache>>& caches) {
    for (std::size_t ei = 0; ei < 3; ++ei) {
      for (const Answer& a : cold[ei]) {
        if (!a.report) continue;
        const Report& r = *a.report;
        if (ei == 2) {
          if (!r.fuzz) continue;
          ledger.fuzz_steps += r.fuzz->total_steps;
          ledger.fuzz_corpus += r.fuzz->corpus_entries;
          ledger.fuzz_execs += r.fuzz->executions;
          ledger.witness_found += r.fuzz->witness_steps_found;
          ledger.witness_shrunk += r.fuzz->witness_steps_shrunk;
          continue;
        }
        ledger.states[ei] += r.states_visited;
        ledger.peak_bytes[ei] += r.peak_bytes;
        if (ei == 0) {
          ledger.table_grows += r.table_grows;
          ledger.immunity_checks += r.immunity_checks;
          ledger.immunity_skips += r.immunity_skips;
        } else if (r.frontier) {
          ledger.frontier.waves += r.frontier->waves;
          ledger.frontier.forwarded += r.frontier->forwarded;
          ledger.frontier.batch_sweeps += r.frontier->batch_sweeps;
          ledger.frontier.batched_lanes += r.frontier->batched_lanes;
          ledger.frontier.memo_hits += r.frontier->memo_hits;
        }
      }
      const Cache::Stats stats = caches[ei]->stats();
      ledger.entry_bytes += stats.bytes;
      ledger.entries += stats.entries;
    }
  }

  Workload w_;
  fs::path work_dir_;
  std::vector<ff::verify::Instance> instances_;
  std::vector<ff::sched::SimWorld> worlds_;
  std::unique_ptr<Filled> warm_source_;
  std::vector<int> cpus_;
  std::uint64_t sink_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;  ///< empty for single-valued metrics
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// A round's short samples in microseconds, in the order taken.
std::string samples_us(const std::vector<double>& samples) {
  std::string out;
  for (const double v : samples) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.1f", out.empty() ? "" : " ", v * 1e6);
    out += buf;
  }
  return out;
}

void print_metric(const Metric& m) {
  std::printf("  %-38s %-14s %s", m.name.c_str(), number(m.value).c_str(),
              m.unit.c_str());
  if (m.samples.size() > 1) {
    const auto q = quartiles(m.samples);
    std::printf("  (q1 %s, q3 %s, n=%zu)", number(q[0]).c_str(),
                number(q[2]).c_str(), m.samples.size());
  }
  std::printf("\n");
}

Metric timed(const std::string& name, std::vector<double> samples) {
  return {name, "s", median(samples), std::move(samples)};
}

double ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

std::vector<Metric> end_to_end(Runner& r, const std::vector<RoundTimes>& rounds) {
  std::array<std::vector<double>, 3> cold;
  std::vector<double> setup;
  std::vector<double> warm;
  std::array<std::vector<double>, 3> peaks;
  for (const RoundTimes& t : rounds) {
    for (std::size_t ei = 0; ei < 3; ++ei) {
      cold[ei].push_back(t.cold_s[ei]);
      peaks[ei].push_back(static_cast<double>(t.peak_bytes[ei]));
    }
    setup.push_back(fastest(t.setup_s));
    warm.push_back(fastest(t.warm_s));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const Tally& t = r.tally;
  return {
      timed("setup_s", setup),
      timed("dfs_s", cold[0]),
      timed("frontier_s", cold[1]),
      timed("fuzz_s", cold[2]),
      timed("warm_s", warm),
      {"dfs_peak_bytes", "bytes", median(peaks[0]), {}},
      {"frontier_peak_bytes", "bytes", median(peaks[1]), {}},
      {"peak_rss_bytes", "bytes", static_cast<double>(ru.ru_maxrss) * 1024.0, {}},
      {"ok_share", "ratio",
       1.0 - ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted), 0),
       {}},
  };
}

std::vector<Metric> per_layer(Runner& r, double untraced_s, double traced_s) {
  const Ledger& l = r.ledger;
  const auto rounds = static_cast<double>(std::max<std::uint64_t>(l.rounds, 1));
  std::size_t preps = 0;
  const auto setup = r.tracer.self_seconds("setup", &preps);
  std::size_t warm_passes = 0;
  const auto warm = r.tracer.self_seconds("pass.warm", &warm_passes);
  const auto dfs = r.tracer.self_seconds("pass.dfs");
  const auto frontier = r.tracer.self_seconds("pass.frontier");
  const auto fuzz = r.tracer.self_seconds("pass.fuzz");
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const double per_prep = static_cast<double>(std::max<std::size_t>(preps, 1));
  const double per_warm = static_cast<double>(std::max<std::size_t>(warm_passes, 1));
  const double dfs_states = static_cast<double>(l.states[0]);
  const double fr_states = static_cast<double>(l.states[1]);
  const double dfs_s = get(dfs, "sched.dfs");

  const SampleTimings st = r.sample_timings();
  const double dfs_ns_per_state = ratio(dfs_s * 1e9, dfs_states, 0);
  const double modelled = st.enabled_ns +
                          st.edges_per_state *
                              (st.step_ns + st.patch_ns + st.fingerprint_ns) +
                          st.canonical_share * st.canon_ns;
  const double checks = static_cast<double>(l.immunity_checks);
  const double memo = static_cast<double>(l.frontier.memo_hits);
  const double lanes = static_cast<double>(l.frontier.batched_lanes);
  const double cold_passes = static_cast<double>(std::max<std::uint64_t>(l.cold_passes, 1));
  return {
      {"verify.instantiate_s", "s", get(setup, "verify.instantiate") / per_prep, {}},
      {"proto.build_program_s", "s", get(setup, "proto.build_program") / per_prep, {}},
      {"proto.factory_s", "s", get(setup, "proto.factory") / per_prep, {}},
      {"proto.facts_s", "s", get(setup, "proto.facts") / per_prep, {}},
      {"verify.fingerprint_s", "s", get(warm, "verify.fingerprint") / per_warm, {}},
      {"verify.cache_load_s", "s", get(warm, "verify.cache_load") / per_warm, {}},
      {"verify.report_json_s", "s", get(warm, "verify.report_json") / per_warm, {}},
      {"verify.entry_bytes", "bytes",
       ratio(static_cast<double>(l.entry_bytes), static_cast<double>(l.entries), 0), {}},
      {"verify.hit_ratio", "ratio",
       ratio(static_cast<double>(l.warm_hits), static_cast<double>(l.warm_lookups), 0), {}},
      {"verify.cache_store_s", "s",
       (get(dfs, "verify.cache_store") + get(frontier, "verify.cache_store") +
        get(fuzz, "verify.cache_store")) / rounds, {}},
      {"sched.dfs.states_per_s", "1/s", ratio(dfs_states, dfs_s, 0), {}},
      {"sched.dfs.table_grows", "count", static_cast<double>(l.table_grows) / rounds, {}},
      {"sched.dfs.bytes_per_state", "bytes",
       ratio(static_cast<double>(l.peak_bytes[0]), dfs_states, 0), {}},
      {"sched.dfs.residual_ns_per_state", "ns", dfs_ns_per_state - modelled, {}},
      {"sched.frontier.states_per_s", "1/s",
       ratio(fr_states, get(frontier, "sched.frontier"), 0), {}},
      {"sched.frontier.waves", "count", static_cast<double>(l.frontier.waves) / rounds, {}},
      {"sched.frontier.wait_share", "ratio",
       1.0 - ratio(l.frontier_cpu_s, l.frontier_wall_s * kFrontierThreads, 1), {}},
      {"sched.frontier.forwarded_per_state", "ratio",
       ratio(static_cast<double>(l.frontier.forwarded), fr_states, 0), {}},
      {"sched.frontier.bytes_per_state", "bytes",
       ratio(static_cast<double>(l.peak_bytes[1]), fr_states, 0), {}},
      {"sched.frontier.memo_hit_ratio", "ratio", ratio(memo, memo + lanes, 0), {}},
      {"sched.frontier.lanes_per_sweep", "count",
       ratio(lanes, static_cast<double>(l.frontier.batch_sweeps), 0), {}},
      {"sched.fuzz.steps_per_s", "1/s",
       ratio(static_cast<double>(l.fuzz_steps), get(fuzz, "sched.fuzz"), 0), {}},
      {"sched.fuzz.late_steps_per_s", "1/s", r.late_fuzz_rate(), {}},
      {"sched.fuzz.corpus_entries", "count", static_cast<double>(l.fuzz_corpus) / rounds, {}},
      {"sched.fuzz.execs", "count", static_cast<double>(l.fuzz_execs) / rounds, {}},
      {"sched.fuzz.shrink_ratio", "ratio",
       ratio(static_cast<double>(l.witness_shrunk), static_cast<double>(l.witness_found), 1), {}},
      {"sched.prune_factor", "ratio",
       ratio(checks + static_cast<double>(l.immunity_skips), checks, 1), {}},
      {"sched.sample.states", "count", static_cast<double>(st.states), {}},
      {"sched.world.enabled_ns", "ns", st.enabled_ns, {}},
      {"sched.world.step_ns", "ns", st.step_ns, {}},
      {"sched.reduce.encode_ns", "ns", st.encode_ns, {}},
      {"sched.reduce.patch_ns", "ns", st.patch_ns, {}},
      {"sched.reduce.canon_ns", "ns", st.canon_ns, {}},
      {"sched.reduce.fingerprint_ns", "ns", st.fingerprint_ns, {}},
      {"proc.cpu_s", "s", l.cold_usage.cpu_s / cold_passes, {}},
      {"proc.minor_faults", "count", l.cold_usage.minor_faults / cold_passes, {}},
      {"trace.overhead_ratio", "ratio", ratio(traced_s, untraced_s, 1), {}},
  };
}

int run_benchmark(const Args& args) {
  Workload w = make_workload(args.workload, args.seed);
  const fs::path work = args.work_dir / (w.name + "-" + std::to_string(getpid()));
  Runner runner(std::move(w), work);
  runner.prepare();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d jobs=%zu\n",
              runner.workload().name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, runner.workload().jobs.size());
  std::fflush(stdout);

  const auto start = Clock::now();
  std::vector<RoundTimes> untraced;
  std::vector<double> untraced_totals;
  std::vector<double> traced_totals;
  double last_round = 0;
  for (int index = 0;; ++index) {
    const double elapsed = since(start);
    if (index >= (args.trace ? kMinTracedRunRounds : kMinRounds) &&
        elapsed + last_round > args.seconds) {
      break;
    }
    const bool traced = args.trace && index % 2 == 1;
    const auto round_start = Clock::now();
    const RoundTimes t = runner.round(index, traced);
    std::printf("round %d%s: dfs %.4f s, frontier %.4f s, fuzz %.4f s; "
                "setup samples [%s] us, warm samples [%s] us\n",
                index, traced ? " (traced)" : "", t.cold_s[0], t.cold_s[1],
                t.cold_s[2], samples_us(t.setup_s).c_str(), samples_us(t.warm_s).c_str());
    std::fflush(stdout);
    const double passes = t.cold_s[0] + t.cold_s[1] + t.cold_s[2] + fastest(t.warm_s);
    if (traced) {
      traced_totals.push_back(passes);
    } else if (index > 0) {
      untraced_totals.push_back(passes);
    }
    if (!traced) untraced.push_back(t);
    last_round = since(round_start);
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = per_layer(runner, median(untraced_totals), median(traced_totals));
    const fs::path spans =
        args.work_dir / ("spans-" + runner.workload().name + "-seed" +
                         std::to_string(args.seed) + ".jsonl");
    std::ofstream out(spans);
    runner.tracer.write_jsonl(out);
    std::printf("spans: %zu written to %s\n", runner.tracer.spans().size(),
                spans.string().c_str());
  } else {
    metrics = end_to_end(runner, untraced);
  }
  runner.cleanup();

  const Tally& t = runner.tally;
  std::printf("rounds=%zu attempted=%llu failed=%llu wrong=%llu\n",
              untraced.size() + traced_totals.size(),
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.wrong));
  for (const std::string& note : t.notes) std::printf("  failed: %s\n", note.c_str());
  for (const Metric& m : metrics) print_metric(m);

  std::string json = "{\"correct\": ";
  json += t.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_benchmark(perfbench::parse_args(argc, argv));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 2;
  }
}
